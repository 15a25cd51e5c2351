#include "core/ml_service.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "ml/gmm.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::core {

namespace {

/// Score reported for a zero-mass (never-fitted) GMM encoding: far below
/// any real per-sample log-likelihood of the telemetry workloads, so a
/// fresh model never outranks a fitted one, yet finite so regret stays
/// integrable. (An empty test set would divide by zero long before this
/// matters; test() guards that.)
constexpr double kUnfitDensityScore = -1.0e3;

/// Local training of a supervised net: SGD on a leased network.
TrainResult train_net(ml::NetworkPool& nets, const ml::Weights& start,
                      const ml::DatasetView& data,
                      const ml::TrainConfig& config, util::Rng& job_rng) {
  const ml::NetworkPool::Lease net = nets.lease(start);
  TrainResult result;
  result.report = ml::train_sgd(*net, data, config, job_rng);
  result.weights = net->weights();
  return result;
}

/// Local training of the density family: EM on a GMM. `flops` is the
/// service's estimate for the window (estimate_train_flops).
TrainResult train_density(const DensitySpec& spec, std::uint64_t flops,
                          const ml::Weights& start,
                          const ml::DatasetView& data, util::Rng& job_rng) {
  if (data.empty()) {
    throw std::invalid_argument{"MlService::train: empty data"};
  }
  // A received global model seeds EM; the zero-mass sentinel (or a wiped
  // model) falls back to a k-means init from the local window — which is
  // also how the very first local model of every vehicle is born.
  ml::GmmModel model;
  if (ml::gmm_has_mass(start)) {
    model = ml::gmm_model_from_weights(start, spec.var_floor);
    if (model.k() != spec.components || model.dims() != spec.dims) {
      throw std::invalid_argument{
          "MlService::train: GMM encoding does not match the density spec"};
    }
  } else {
    model = ml::gmm_init(data, spec.components, job_rng, spec.var_floor);
  }
  const ml::GmmReport em =
      ml::gmm_fit_em(model, data, spec.em_iterations, spec.var_floor);

  // What travels is the *statistics* of the local window under the fitted
  // model — the associative currency every aggregation path can pool.
  const ml::GmmSuffStats stats = ml::gmm_accumulate(model, data);
  TrainResult result;
  result.weights = ml::gmm_encode(stats);
  result.report.final_loss = -em.mean_log_likelihood;
  result.report.final_accuracy = em.mean_log_likelihood;
  result.report.samples_seen = data.size() * em.iterations;
  result.report.steps = em.iterations;
  result.report.flops = flops;
  return result;
}

}  // namespace

MlService::MlService(ml::Network prototype, ml::DatasetView test_set)
    : nets_{std::make_shared<ml::NetworkPool>(std::move(prototype))},
      test_set_{std::move(test_set)} {
  const ml::Network& proto = nets_->prototype();
  if (proto.layer_count() == 0) {
    throw std::invalid_argument{"MlService: empty prototype network"};
  }
  model_bytes_ = ml::weights_byte_size(proto.weights());
  param_count_ = proto.parameter_count();
  flops_per_sample_ = proto.flops_per_sample();
  if (flops_per_sample_ == 0) {
    throw std::invalid_argument{
        "MlService: prototype not primed (run a forward pass; see "
        "ml::prime_and_init)"};
  }
}

MlService::MlService(DensitySpec spec, ml::DatasetView test_set)
    : nets_{std::make_shared<ml::NetworkPool>(ml::Network{})},
      test_set_{std::move(test_set)},
      density_{true},
      density_spec_{spec} {
  if (spec.components == 0 || spec.dims == 0) {
    throw std::invalid_argument{
        "MlService: density spec needs components and dims > 0"};
  }
  if (spec.em_iterations <= 0) {
    throw std::invalid_argument{"MlService: em_iterations must be > 0"};
  }
  const ml::Weights shape =
      ml::gmm_zero_weights(spec.components, spec.dims);
  model_bytes_ = ml::weights_byte_size(shape);
  param_count_ = ml::weights_parameter_count(shape);
  // E-step cost per sample per iteration: k Gaussians × d dims × ~an exp,
  // a log, two multiplies and two adds ≈ 8 flops, plus the M-step folded
  // in. Analytic like the net path, so HU durations stay deterministic.
  flops_per_sample_ =
      8 * static_cast<std::uint64_t>(spec.components) * spec.dims;
}

std::uint64_t MlService::estimate_train_flops(std::size_t samples,
                                              int epochs) const {
  if (density_) {
    return flops_per_sample_ * static_cast<std::uint64_t>(samples) *
           static_cast<std::uint64_t>(density_spec_.em_iterations);
  }
  return 3 * flops_per_sample_ * static_cast<std::uint64_t>(samples) *
         static_cast<std::uint64_t>(epochs);
}

TrainResult MlService::train(ml::Weights start, ml::DatasetView data,
                             const ml::TrainConfig& config,
                             util::Rng job_rng) const {
  if (density_) {
    return train_density(density_spec_,
                         estimate_train_flops(data.size(), /*epochs=*/0),
                         start, data, job_rng);
  }
  return train_net(*nets_, start, data, config, job_rng);
}

std::future<TrainResult> MlService::train_async(ml::Weights start,
                                                ml::DatasetView data,
                                                ml::TrainConfig config,
                                                util::Rng job_rng) const {
  // The job captures everything it reads by value or shared ownership, not
  // `this`: a simulator torn down with the job still queued leaves it
  // nothing dangling to run against.
  std::function<TrainResult()> run;
  if (density_) {
    run = [spec = density_spec_,
           flops = estimate_train_flops(data.size(), /*epochs=*/0),
           start = std::move(start), data = std::move(data),
           job_rng]() mutable {
      return train_density(spec, flops, start, data, job_rng);
    };
  } else {
    run = [nets = nets_, start = std::move(start), data = std::move(data),
           config, job_rng]() mutable {
      return train_net(*nets, start, data, config, job_rng);
    };
  }
  // ThreadPool::submit takes a copyable function; the task is move-only.
  auto job = std::make_shared<std::packaged_task<TrainResult()>>(
      std::move(run));
  std::future<TrainResult> result = job->get_future();
  util::ThreadPool::global().submit([job] { (*job)(); });
  return result;
}

const TrainResult& MlService::await(
    const std::shared_future<TrainResult>& job) {
  util::ThreadPool::global().wait(job);
  return job.get();
}

ml::EvalReport MlService::test(const ml::Weights& weights) const {
  if (test_set_.empty()) {
    throw std::logic_error{"MlService::test: no test set configured"};
  }
  return test_on(weights, test_set_);
}

ml::EvalReport MlService::eval_density(const ml::Weights& weights,
                                       const ml::DatasetView& data) const {
  ml::EvalReport report;
  report.samples = data.size();
  report.flops = flops_per_sample_ * data.size();
  if (!ml::gmm_has_mass(weights)) {
    report.accuracy = kUnfitDensityScore;
    report.loss = -kUnfitDensityScore;
    return report;
  }
  const ml::GmmModel model =
      ml::gmm_model_from_weights(weights, density_spec_.var_floor);
  const double score = ml::gmm_mean_log_likelihood(model, data);
  report.accuracy = score;
  report.loss = -score;
  return report;
}

ml::EvalReport MlService::test_on(const ml::Weights& weights,
                                  const ml::DatasetView& data) const {
  if (density_) return eval_density(weights, data);
  return ml::evaluate(*nets_, weights, data);
}

void MlService::set_eval_windows(std::vector<EvalWindow> windows) {
  if (windows.empty()) {
    throw std::invalid_argument{"MlService::set_eval_windows: no windows"};
  }
  if (windows.front().start_s != 0.0) {
    throw std::invalid_argument{
        "MlService::set_eval_windows: first window must start at 0"};
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].data.empty()) {
      throw std::invalid_argument{
          "MlService::set_eval_windows: empty window"};
    }
    if (i > 0 && windows[i].start_s <= windows[i - 1].start_s) {
      throw std::invalid_argument{
          "MlService::set_eval_windows: start times must ascend"};
    }
  }
  windows_ = std::move(windows);
  test_set_ = windows_.front().data;
}

ml::EvalReport MlService::test_at(const ml::Weights& weights,
                                  double time_s) const {
  if (windows_.empty()) {
    throw std::logic_error{"MlService::test_at: no eval windows"};
  }
  // Last window with start_s <= time_s; times before the first window
  // clamp to window 0.
  std::size_t lo = 0;
  for (std::size_t i = 1; i < windows_.size(); ++i) {
    if (windows_[i].start_s <= time_s) lo = i;
  }
  return test_on(weights, windows_[lo].data);
}

ml::Weights MlService::fresh_weights(util::Rng& rng) const {
  if (density_) {
    return ml::gmm_zero_weights(density_spec_.components, density_spec_.dims);
  }
  ml::Network net = nets_->prototype();
  net.init_params(rng);
  return net.weights();
}

}  // namespace roadrunner::core
