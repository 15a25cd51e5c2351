// Tests for the second wave of ML features: Adam, FedProx-style
// proximal training, and the metric-analysis helpers.
#include <gtest/gtest.h>

#include "data/gaussian_blobs.hpp"
#include "metrics/analysis.hpp"
#include "ml/adam.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

// -------------------------------------------------------------------- Adam --

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  Adam opt{0.1F};
  Tensor p{{2}, {1.0F, -1.0F}};
  Tensor g{{2}, {3.0F, -0.5F}};
  opt.step({&p}, {&g});
  EXPECT_NEAR(p[0], 1.0F - 0.1F, 1e-4);
  EXPECT_NEAR(p[1], -1.0F + 0.1F, 1e-4);
  EXPECT_EQ(opt.steps_taken(), 1U);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(w) = (w - 3)^2 — Adam must land near 3.
  Adam opt{0.05F};
  Tensor w{{1}, {0.0F}};
  Tensor g{{1}};
  for (int i = 0; i < 2000; ++i) {
    g[0] = 2.0F * (w[0] - 3.0F);
    opt.step({&w}, {&g});
  }
  EXPECT_NEAR(w[0], 3.0F, 0.05);
}

TEST(Adam, ValidatesArguments) {
  EXPECT_THROW((Adam{0.0F}), std::invalid_argument);
  EXPECT_THROW((Adam{0.1F, 1.0F}), std::invalid_argument);
  EXPECT_THROW((Adam{0.1F, 0.9F, 1.0F}), std::invalid_argument);
  EXPECT_THROW((Adam{0.1F, 0.9F, 0.999F, 0.0F}), std::invalid_argument);
  Adam opt{0.1F};
  Tensor p{{2}};
  Tensor g{{3}};
  EXPECT_THROW(opt.step({&p}, {&g}), std::invalid_argument);
}

TEST(Adam, TrainerIntegrationLearns) {
  data::GaussianBlobConfig bc;
  auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_gaussian_blobs(300, bc)));
  util::Rng rng{1};
  Network net = make_mlp(16, 24, 4);
  prime_and_init(net, {16}, rng);
  TrainConfig cfg;
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.learning_rate = 0.005F;
  cfg.epochs = 5;
  util::Rng train_rng{2};
  train_sgd(net, view, cfg, train_rng);
  EXPECT_GT(evaluate(net, view).accuracy, 0.8);
}

// ------------------------------------------------------------- FedProx ----

TEST(Proximal, AnchorsWeightsToReference) {
  data::GaussianBlobConfig bc;
  auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_gaussian_blobs(120, bc)));
  util::Rng rng{8};
  Network base = make_mlp(16, 16, 4);
  prime_and_init(base, {16}, rng);
  const Weights start = base.weights();

  auto drift_norm = [&](float mu) {
    Network net = base;
    TrainConfig cfg;
    cfg.epochs = 4;
    cfg.learning_rate = 0.05F;
    cfg.proximal_mu = mu;
    util::Rng train_rng{9};
    train_sgd(net, view, cfg, train_rng);
    const Weights end = net.weights();
    double norm = 0.0;
    for (std::size_t i = 0; i < end.size(); ++i) {
      norm += (end[i] - start[i]).norm();
    }
    return norm;
  };

  const double free_drift = drift_norm(0.0F);
  const double mild = drift_norm(0.1F);
  const double strong = drift_norm(5.0F);
  EXPECT_LT(mild, free_drift);
  EXPECT_LT(strong, mild);
}

TEST(Proximal, NegativeMuRejected) {
  data::GaussianBlobConfig bc;
  auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_gaussian_blobs(32, bc)));
  util::Rng rng{10};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  TrainConfig cfg;
  cfg.proximal_mu = -1.0F;
  EXPECT_THROW(train_sgd(net, view, cfg, rng), std::invalid_argument);
}

}  // namespace
}  // namespace roadrunner::ml

namespace roadrunner::metrics {
namespace {

std::vector<Point> ramp() {
  return {{0, 0.1}, {10, 0.3}, {20, 0.5}, {30, 0.45}, {40, 0.7}};
}

TEST(Analysis, TimeToThreshold) {
  EXPECT_DOUBLE_EQ(time_to_threshold(ramp(), 0.5).value(), 20.0);
  EXPECT_DOUBLE_EQ(time_to_threshold(ramp(), 0.05).value(), 0.0);
  EXPECT_FALSE(time_to_threshold(ramp(), 0.9).has_value());
  EXPECT_FALSE(time_to_threshold({}, 0.1).has_value());
}

TEST(Analysis, TimeAverage) {
  // Constant series -> the constant.
  EXPECT_DOUBLE_EQ(time_average({{0, 2.0}, {10, 2.0}}), 2.0);
  // Linear 0 -> 1 over the span -> 0.5.
  EXPECT_DOUBLE_EQ(time_average({{0, 0.0}, {10, 1.0}}), 0.5);
  EXPECT_DOUBLE_EQ(time_average({{5, 3.0}}), 3.0);
  EXPECT_DOUBLE_EQ(time_average({}), 0.0);
}

TEST(Analysis, PeakAndJitter) {
  EXPECT_DOUBLE_EQ(peak_value(ramp()), 0.7);
  // |0.2| + |0.2| + |0.05| + |0.25| over 4 gaps.
  EXPECT_NEAR(mean_absolute_change(ramp()), (0.2 + 0.2 + 0.05 + 0.25) / 4,
              1e-12);
  EXPECT_DOUBLE_EQ(mean_absolute_change({{0, 1.0}}), 0.0);
}

TEST(Analysis, Summarize) {
  const auto s = summarize(ramp());
  EXPECT_DOUBLE_EQ(s.final_value, 0.7);
  EXPECT_DOUBLE_EQ(s.peak, 0.7);
  EXPECT_GT(s.time_avg, 0.0);
  ASSERT_TRUE(s.time_to_half_peak.has_value());
  EXPECT_DOUBLE_EQ(*s.time_to_half_peak, 20.0);  // first >= 0.35
  const auto empty = summarize({});
  EXPECT_DOUBLE_EQ(empty.final_value, 0.0);
}

}  // namespace
}  // namespace roadrunner::metrics
