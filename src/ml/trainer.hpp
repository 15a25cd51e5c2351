// Local training and evaluation routines — the "train" and "test" operations
// the paper's ML module exposes (§4). These perform the *real* computation;
// the simulated duration is charged separately by hu::HardwareUnit from the
// FLOP counts reported here.
#pragma once

#include <cstdint>

#include "ml/dataset.hpp"
#include "ml/net.hpp"
#include "ml/network_pool.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {

enum class OptimizerKind {
  kSgdMomentum,  ///< the paper's choice (§5.2)
  kAdam,
};

struct TrainConfig {
  int epochs = 2;          ///< paper §5.2: two epochs per retrain
  std::size_t batch_size = 16;
  OptimizerKind optimizer = OptimizerKind::kSgdMomentum;
  float learning_rate = 0.01F;
  float momentum = 0.9F;   ///< SGD only
  float weight_decay = 0.0F;
  bool shuffle = true;     ///< reshuffle sample order every epoch
  /// FedProx-style proximal coefficient μ: adds μ(w - w_ref) to every
  /// gradient, anchoring local training to the received global model — the
  /// standard remedy for client drift under the "highly skewed" data
  /// distributions the paper's experiment uses. 0 disables. The reference
  /// weights are the network's weights at the start of train_sgd.
  float proximal_mu = 0.0F;
  /// Targeted label-flip poisoning (adversary subsystem): train against
  /// labels shifted by one class, y -> (y + 1) mod C, where C is the
  /// logits width. The gradient then actively steers the model wrong while
  /// the update stays structurally indistinguishable from an honest one.
  bool label_flip = false;
};

struct TrainReport {
  double final_loss = 0.0;        ///< mean loss over the last epoch
  double final_accuracy = 0.0;    ///< training accuracy over the last epoch
  std::size_t samples_seen = 0;   ///< total forward/backward sample passes
  std::uint64_t flops = 0;        ///< ~3 * forward MACs * samples (fwd+bwd)
  std::size_t steps = 0;          ///< optimizer steps taken
};

/// Runs mini-batch SGD with momentum on `net` over `data`.
/// Deterministic given (net weights, data order, rng state, config).
/// Throws std::invalid_argument if data is empty.
TrainReport train_sgd(Network& net, const DatasetView& data,
                      const TrainConfig& config, util::Rng& rng);

struct EvalReport {
  double accuracy = 0.0;
  double loss = 0.0;
  std::size_t samples = 0;
  std::uint64_t flops = 0;  ///< forward MACs * samples
};

/// Accuracy/loss of `weights` over `data`, run in inference mode on
/// networks leased from `nets`. If `parallel` is true, at most one shard
/// per worker of the global thread pool leases a network and takes batches
/// in turn; per-batch results are summed in batch order, so the result is
/// identical either way. `flops` counts the pool prototype's forward MACs.
EvalReport evaluate(NetworkPool& nets, const Weights& weights,
                    const DatasetView& data, std::size_t batch_size = 64,
                    bool parallel = true);

/// The same for the weights of `net`, on networks copied from it; `flops`
/// counts `net`'s forward MACs.
EvalReport evaluate(const Network& net, const DatasetView& data,
                    std::size_t batch_size = 64, bool parallel = true);

}  // namespace roadrunner::ml
