#include "ml/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "ml/adam.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::ml {

TrainReport train_sgd(Network& net, const DatasetView& data,
                      const TrainConfig& config, util::Rng& rng) {
  telemetry::Span span{"ml", "ml.train_sgd"};
  if (span.active()) {
    span.set_args("samples=" + std::to_string(data.size()) +
                  " epochs=" + std::to_string(config.epochs));
  }
  if (data.empty()) throw std::invalid_argument{"train_sgd: empty dataset"};
  if (config.epochs <= 0) {
    throw std::invalid_argument{"train_sgd: epochs <= 0"};
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument{"train_sgd: batch_size == 0"};
  }
  if (config.proximal_mu < 0.0F) {
    throw std::invalid_argument{"train_sgd: negative proximal_mu"};
  }

  SgdMomentum sgd{config.learning_rate, config.momentum, config.weight_decay};
  Adam adam{config.learning_rate, 0.9F, 0.999F, 1e-8F, config.weight_decay};
  auto step = [&](const std::vector<Tensor*>& params,
                  const std::vector<Tensor*>& grads) {
    if (config.optimizer == OptimizerKind::kAdam) {
      adam.step(params, grads);
    } else {
      sgd.step(params, grads);
    }
  };

  // FedProx anchor: the weights the training started from.
  const Weights reference =
      config.proximal_mu > 0.0F ? net.weights() : Weights{};

  net.set_training(true);
  const std::size_t n = data.size();

  // Epochs iterate over a shuffled copy of the view's indices.
  std::vector<std::uint32_t> order = data.indices();
  DatasetView epoch_view;

  TrainReport report;
  Tensor batch_x;
  std::vector<std::int32_t> batch_y;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);
    epoch_view = DatasetView{data.base_ptr(), order};

    double epoch_loss = 0.0;
    std::size_t epoch_correct = 0;

    for (std::size_t first = 0; first < n; first += config.batch_size) {
      const std::size_t count = std::min(config.batch_size, n - first);
      epoch_view.gather_batch(first, count, batch_x, batch_y);

      net.zero_grad();
      Tensor logits = net.forward(batch_x);
      if (config.label_flip && logits.rank() >= 2 && logits.shape()[1] > 0) {
        const auto classes = static_cast<std::int32_t>(logits.shape()[1]);
        for (std::int32_t& label : batch_y) {
          label = (label + 1) % classes;
        }
      }
      LossResult loss = softmax_cross_entropy(logits, batch_y);
      net.backward_params(loss.grad);
      if (config.proximal_mu > 0.0F) {
        const auto params = net.params();
        const auto grads = net.grads();
        for (std::size_t p = 0; p < params.size(); ++p) {
          Tensor drift = *params[p];
          drift.sub_(reference[p]);
          grads[p]->add_scaled_(drift, config.proximal_mu);
        }
      }
      step(net.params(), net.grads());

      epoch_loss += loss.loss * static_cast<double>(count);
      epoch_correct += loss.correct;
      report.samples_seen += count;
      ++report.steps;
      // Forward + backward is ~3x the forward MAC count (standard estimate:
      // backward does two matmul-sized passes per forward one).
      report.flops += 3 * net.flops_per_sample() * count;
    }

    report.final_loss = epoch_loss / static_cast<double>(n);
    report.final_accuracy =
        static_cast<double>(epoch_correct) / static_cast<double>(n);
  }
  net.set_training(false);
  return report;
}

EvalReport evaluate(NetworkPool& nets, const Weights& weights,
                    const DatasetView& data, std::size_t batch_size,
                    bool parallel) {
  RR_TSPAN("ml", "ml.evaluate");
  EvalReport report;
  report.samples = data.size();
  if (data.empty()) return report;
  if (batch_size == 0) throw std::invalid_argument{"evaluate: batch_size 0"};

  const std::size_t n = data.size();
  const std::size_t num_batches = (n + batch_size - 1) / batch_size;

  std::vector<std::size_t> correct(num_batches, 0);
  std::vector<double> loss(num_batches, 0.0);

  // Each shard leases one network (inference mode: no layer caches its
  // input) and takes the next unclaimed batch until none is left. Which
  // shard scores a batch cannot change its bits: an inference forward
  // depends on the weights and the batch only.
  std::atomic<std::size_t> next_batch{0};
  auto shard = [&](std::size_t) {
    std::size_t b = next_batch.fetch_add(1);
    if (b >= num_batches) return;  // all claimed: no lease needed
    const NetworkPool::Lease net = nets.lease(weights);
    net->set_training(false);
    Tensor batch_x;
    std::vector<std::int32_t> batch_y;
    for (; b < num_batches; b = next_batch.fetch_add(1)) {
      const std::size_t first = b * batch_size;
      const std::size_t count = std::min(batch_size, n - first);
      data.gather_batch(first, count, batch_x, batch_y);
      const LossResult r =
          softmax_cross_entropy(net->forward(batch_x), batch_y);
      correct[b] = r.correct;
      loss[b] = r.loss * static_cast<double>(count);
    }
  };

  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t shards =
      parallel ? std::min(num_batches, pool.size()) : 1;
  pool.parallel_for(shards, shard);

  std::size_t total_correct = 0;
  double total_loss = 0.0;
  for (std::size_t b = 0; b < num_batches; ++b) {
    total_correct += correct[b];
    total_loss += loss[b];
  }
  report.accuracy = static_cast<double>(total_correct) / static_cast<double>(n);
  report.loss = total_loss / static_cast<double>(n);
  report.flops = nets.prototype().flops_per_sample() * n;
  return report;
}

EvalReport evaluate(const Network& net, const DatasetView& data,
                    std::size_t batch_size, bool parallel) {
  NetworkPool nets{net};
  EvalReport report =
      evaluate(nets, net.weights(), data, batch_size, parallel);
  report.flops = net.flops_per_sample() * data.size();
  return report;
}

}  // namespace roadrunner::ml
