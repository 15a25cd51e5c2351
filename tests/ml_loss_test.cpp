#include "ml/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits{{2, 4}};  // all zeros -> uniform distribution
  const auto r = softmax_cross_entropy(logits, {1, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectPredictionLowLoss) {
  Tensor logits{{1, 3}, {10.0F, 0.0F, 0.0F}};
  const auto r = softmax_cross_entropy(logits, {0});
  EXPECT_LT(r.loss, 1e-3);
  EXPECT_EQ(r.correct, 1U);
}

TEST(SoftmaxCrossEntropy, ConfidentWrongPredictionHighLoss) {
  Tensor logits{{1, 3}, {10.0F, 0.0F, 0.0F}};
  const auto r = softmax_cross_entropy(logits, {2});
  EXPECT_GT(r.loss, 9.0);
  EXPECT_EQ(r.correct, 0U);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  util::Rng rng{1};
  Tensor logits{{3, 5}};
  roadrunner::testing::randomize(logits, rng, 2.0);
  const auto r = softmax_cross_entropy(logits, {0, 2, 4});
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0;
    for (std::size_t j = 0; j < 5; ++j) row_sum += r.grad.at2(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  util::Rng rng{2};
  Tensor logits{{2, 4}};
  roadrunner::testing::randomize(logits, rng, 1.5);
  const std::vector<std::int32_t> labels{3, 1};
  const auto r = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const double numeric = roadrunner::testing::numerical_gradient(
        [&] { return softmax_cross_entropy(logits, labels).loss; },
        logits[i]);
    EXPECT_NEAR(r.grad[i], numeric, 1e-3) << "logit " << i;
  }
}

TEST(SoftmaxCrossEntropy, NumericallyStableForHugeLogits) {
  Tensor logits{{1, 3}, {1000.0F, 999.0F, -1000.0F}};
  const auto r = softmax_cross_entropy(logits, {0});
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, std::log(1.0 + std::exp(-1.0)), 1e-4);
}

TEST(SoftmaxCrossEntropy, ValidatesInput) {
  Tensor logits{{2, 3}};
  EXPECT_THROW(softmax_cross_entropy(logits, {0}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 3}), std::invalid_argument);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, -1}), std::invalid_argument);
  Tensor rank1{{3}};
  EXPECT_THROW(softmax_cross_entropy(rank1, {0}), std::invalid_argument);
}

}  // namespace
}  // namespace roadrunner::ml
