// The ML module (paper §4): holds the learning problem's model architecture
// prototype and server test set, and provides train/test/aggregate
// operations on agents' weights. Training executes for real (genuine
// gradients and accuracy) on the process's thread pool, emulating the HUs'
// ability to "run multiple operations in parallel to speed up the
// simulation" (§4); the *simulated* duration is charged analytically by
// hu::HardwareUnit from the FLOP estimate, so results are deterministic
// regardless of thread scheduling.
//
// Two model families share this one interface (Req. 2, "arbitrary models"):
//  * supervised nets — Weights are parameter tensors, train is SGD, test is
//    classification accuracy;
//  * density GMMs (the telemetry workload, DESIGN.md §13) — Weights are
//    normalized sufficient statistics (ml/gmm codec), train is EM seeded by
//    k-means, and "accuracy" is held-out mean log-likelihood. Because the
//    encoding rides the ordinary Weights type, every merge path, the
//    serializer, checkpoints, and the dist service carry it unchanged.
//
// For drift scenarios the service additionally holds timestamped eval
// windows: test_at(w, t) scores against the window covering simulated time
// t, so evaluation follows the moving distribution.
#pragma once

#include <cstdint>
#include <future>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/net.hpp"
#include "ml/serialize.hpp"
#include "ml/trainer.hpp"
#include "util/rng.hpp"

namespace roadrunner::core {

struct TrainResult {
  ml::Weights weights;
  ml::TrainReport report;

  template <class Ar>
  void fields(Ar& ar) {
    ar(weights, report.final_loss, report.final_accuracy,
       report.samples_seen, report.flops, report.steps);
  }
};

/// Configuration of the GMM density objective (telemetry workload).
struct DensitySpec {
  std::size_t components = 3;
  std::size_t dims = 4;
  /// EM iterations per local training (the density analogue of epochs).
  int em_iterations = 5;
  double var_floor = 1e-3;
};

/// A held-out evaluation set valid from start_s until the next window.
struct EvalWindow {
  double start_s = 0.0;
  ml::DatasetView data;
};

class MlService {
 public:
  /// Supervised family: `prototype` defines the architecture; it is primed
  /// with a dummy forward pass so FLOP estimates are valid. `test_set` may
  /// be empty if the experiment never calls test().
  MlService(ml::Network prototype, ml::DatasetView test_set);

  /// Density family: agents exchange GMM sufficient statistics instead of
  /// net parameters. `test_set` scores held-out log-likelihood.
  MlService(DensitySpec spec, ml::DatasetView test_set);

  /// Serialized byte size of one model of this architecture.
  [[nodiscard]] std::uint64_t model_bytes() const { return model_bytes_; }

  [[nodiscard]] std::uint64_t parameter_count() const { return param_count_; }

  /// True for the GMM density family.
  [[nodiscard]] bool density() const { return density_; }

  /// Forward+backward FLOPs for training `samples` for `epochs` epochs —
  /// the number the Hardware Unit converts into simulated duration. Matches
  /// what ml::train_sgd will report. The density family charges the
  /// analytic EM cost instead (`epochs` is ignored; the spec's EM iteration
  /// count applies).
  [[nodiscard]] std::uint64_t estimate_train_flops(std::size_t samples,
                                                   int epochs) const;

  /// Launches a real training job on a thread of its own (std::async, one
  /// thread per job; not the global thread pool). The job runs
  /// single-threaded and derives all randomness from `job_rng`, so the
  /// result is deterministic no matter when the future is consumed.
  [[nodiscard]] std::future<TrainResult> train_async(
      ml::Weights start, ml::DatasetView data, ml::TrainConfig config,
      util::Rng job_rng) const;

  /// Synchronous variant (used by tests and the centralized strategy's
  /// in-server training).
  [[nodiscard]] TrainResult train(ml::Weights start, ml::DatasetView data,
                                  const ml::TrainConfig& config,
                                  util::Rng job_rng) const;

  /// Accuracy of `weights` on the server test set (parallel internally).
  [[nodiscard]] ml::EvalReport test(const ml::Weights& weights) const;

  /// Accuracy of `weights` on an arbitrary dataset view.
  [[nodiscard]] ml::EvalReport test_on(const ml::Weights& weights,
                                       const ml::DatasetView& data) const;

  /// Installs the drift-evaluation windows (ascending start_s; the first
  /// must start at 0). Also repoints the default test set at window 0 so
  /// code paths that ignore time keep working.
  void set_eval_windows(std::vector<EvalWindow> windows);
  [[nodiscard]] bool has_eval_windows() const { return !windows_.empty(); }
  [[nodiscard]] const std::vector<EvalWindow>& eval_windows() const {
    return windows_;
  }

  /// Scores `weights` against the eval window covering simulated time
  /// `time_s` (the last window with start_s <= time_s). Requires windows.
  [[nodiscard]] ml::EvalReport test_at(const ml::Weights& weights,
                                       double time_s) const;

  /// Fresh initial weights for this architecture: random parameters for
  /// nets, the zero-mass sufficient-statistics sentinel for GMMs (which
  /// consumes no randomness — merging it is a no-op).
  [[nodiscard]] ml::Weights fresh_weights(util::Rng& rng) const;

  [[nodiscard]] const ml::DatasetView& test_set() const { return test_set_; }
  [[nodiscard]] const ml::Network& prototype() const { return prototype_; }
  [[nodiscard]] const DensitySpec& density_spec() const { return density_spec_; }

 private:
  [[nodiscard]] TrainResult train_density(const ml::Weights& start,
                                          const ml::DatasetView& data,
                                          util::Rng& job_rng) const;
  [[nodiscard]] ml::EvalReport eval_density(const ml::Weights& weights,
                                            const ml::DatasetView& data) const;

  ml::Network prototype_;
  ml::DatasetView test_set_;
  bool density_ = false;
  DensitySpec density_spec_;
  std::vector<EvalWindow> windows_;
  std::uint64_t model_bytes_ = 0;
  std::uint64_t param_count_ = 0;
  std::uint64_t flops_per_sample_ = 0;
};

}  // namespace roadrunner::core
