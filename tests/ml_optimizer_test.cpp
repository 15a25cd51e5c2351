#include "ml/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/adam.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {
namespace {

TEST(SgdMomentum, PlainSgdStep) {
  SgdMomentum opt{0.1F, 0.0F};
  Tensor p{{2}, {1.0F, 2.0F}};
  Tensor g{{2}, {10.0F, -10.0F}};
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], 0.0F);
  EXPECT_FLOAT_EQ(p[1], 3.0F);
}

TEST(SgdMomentum, MomentumAccumulates) {
  SgdMomentum opt{1.0F, 0.5F};
  Tensor p{{1}, {0.0F}};
  Tensor g{{1}, {1.0F}};
  opt.step({&p}, {&g});  // v=1, p=-1
  EXPECT_FLOAT_EQ(p[0], -1.0F);
  opt.step({&p}, {&g});  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(p[0], -2.5F);
  opt.step({&p}, {&g});  // v=1.75, p=-4.25
  EXPECT_FLOAT_EQ(p[0], -4.25F);
}

TEST(SgdMomentum, WeightDecayAddsL2Pull) {
  SgdMomentum opt{1.0F, 0.0F, 0.1F};
  Tensor p{{1}, {10.0F}};
  Tensor g{{1}, {0.0F}};
  opt.step({&p}, {&g});
  EXPECT_FLOAT_EQ(p[0], 9.0F);  // p -= lr * (0 + 0.1 * 10)
}

TEST(SgdMomentum, ValidatesConstruction) {
  EXPECT_THROW((SgdMomentum{0.0F}), std::invalid_argument);
  EXPECT_THROW((SgdMomentum{0.1F, 1.0F}), std::invalid_argument);
  EXPECT_THROW((SgdMomentum{0.1F, -0.1F}), std::invalid_argument);
  EXPECT_THROW((SgdMomentum{0.1F, 0.9F, -1.0F}), std::invalid_argument);
}

TEST(SgdMomentum, ValidatesStepArguments) {
  SgdMomentum opt{0.1F};
  Tensor p{{2}};
  Tensor g{{2}};
  Tensor wrong{{3}};
  EXPECT_THROW(opt.step({&p}, {}), std::invalid_argument);
  EXPECT_THROW(opt.step({&p}, {&wrong}), std::invalid_argument);
  // Changing the parameter list between steps is a logic error.
  opt.step({&p}, {&g});
  Tensor q{{2}};
  EXPECT_THROW(opt.step({&p, &q}, {&g, &g}), std::logic_error);
}


// ---- OptimizerOracle: the step loops against the plain per-element loop ---

/// The paper CNN's parameter shapes (conv1, conv2, three Linear layers,
/// each weight then bias), plus lengths off every vector width.
std::vector<std::vector<std::size_t>> oracle_shapes() {
  return {{6, 3, 5, 5}, {6},   {16, 6, 5, 5}, {16}, {120, 400}, {120},
          {84, 120},    {84},  {10, 84},      {10}, {1},        {3},
          {7},          {17},  {33}};
}

/// Random values with about one in `every` replaced by NaN (one bit
/// pattern only: which of two NaN operands an op keeps is not part of the
/// contract), -0, +0 or a denormal of either sign.
std::vector<Tensor> oracle_tensors(util::Rng& rng, std::size_t every) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), -0.0F,
                            0.0F, std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min() * 5};
  std::vector<Tensor> out;
  for (const auto& shape : oracle_shapes()) {
    Tensor t{shape};
    for (float& v : t.values()) {
      v = static_cast<float>(rng.uniform(-1.5, 1.5));
      if (rng.next_below(every) == 0) v = specials[rng.next_below(5)];
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tensor*> pointers(std::vector<Tensor>& tensors) {
  std::vector<Tensor*> out;
  for (Tensor& t : tensors) out.push_back(&t);
  return out;
}

::testing::AssertionResult same_bits(const std::vector<Tensor>& got,
                                     const std::vector<Tensor>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got[i].data(), want[i].data(),
                    got[i].size() * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "tensor " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The pre-vectorisation SgdMomentum::step loop, per element.
void plain_sgd(float lr, float momentum, float weight_decay, Tensor& p,
               const Tensor& g, Tensor& v) {
  for (std::size_t j = 0; j < p.size(); ++j) {
    float grad = g[j];
    if (weight_decay > 0.0F) grad += weight_decay * p[j];
    v[j] = momentum * v[j] + grad;
    p[j] -= lr * v[j];
  }
}

/// The pre-vectorisation Adam::step loop, per element, at step t.
void plain_adam(float lr, float beta1, float beta2, float eps,
                float weight_decay, std::uint64_t t, Tensor& p,
                const Tensor& g, Tensor& m, Tensor& v) {
  const double bias1 =
      1.0 - std::pow(static_cast<double>(beta1), static_cast<double>(t));
  const double bias2 =
      1.0 - std::pow(static_cast<double>(beta2), static_cast<double>(t));
  for (std::size_t j = 0; j < p.size(); ++j) {
    float grad = g[j];
    if (weight_decay > 0.0F) grad += weight_decay * p[j];
    m[j] = beta1 * m[j] + (1.0F - beta1) * grad;
    v[j] = beta2 * v[j] + (1.0F - beta2) * grad * grad;
    const double m_hat = m[j] / bias1;
    const double v_hat = v[j] / bias2;
    p[j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
  }
}

class OptimizerOracle : public ::testing::TestWithParam<float> {};

TEST_P(OptimizerOracle, SgdMomentumMatchesPlainLoopBitwise) {
  const float decay = GetParam();
  for (const std::size_t every : {1000000, 5}) {
    SCOPED_TRACE(::testing::Message() << "specials 1/" << every);
    util::Rng rng{700 + every};
    std::vector<Tensor> params = oracle_tensors(rng, every);
    std::vector<Tensor> want = params;
    std::vector<Tensor> velocity;
    for (const Tensor& p : params) velocity.emplace_back(p.shape());
    SgdMomentum opt{0.05F, 0.9F, decay};
    for (int step = 0; step < 3; ++step) {
      std::vector<Tensor> grads = oracle_tensors(rng, every);
      opt.step(pointers(params), pointers(grads));
      for (std::size_t i = 0; i < want.size(); ++i) {
        plain_sgd(0.05F, 0.9F, decay, want[i], grads[i], velocity[i]);
      }
      EXPECT_TRUE(same_bits(params, want)) << "step " << step;
    }
  }
}

TEST_P(OptimizerOracle, AdamMatchesPlainLoopBitwise) {
  const float decay = GetParam();
  for (const std::size_t every : {1000000, 5}) {
    SCOPED_TRACE(::testing::Message() << "specials 1/" << every);
    util::Rng rng{800 + every};
    std::vector<Tensor> params = oracle_tensors(rng, every);
    std::vector<Tensor> want = params;
    std::vector<Tensor> m, v;
    for (const Tensor& p : params) {
      m.emplace_back(p.shape());
      v.emplace_back(p.shape());
    }
    Adam opt{0.01F, 0.9F, 0.999F, 1e-8F, decay};
    for (std::uint64_t step = 1; step <= 3; ++step) {
      std::vector<Tensor> grads = oracle_tensors(rng, every);
      opt.step(pointers(params), pointers(grads));
      for (std::size_t i = 0; i < want.size(); ++i) {
        plain_adam(0.01F, 0.9F, 0.999F, 1e-8F, decay, step, want[i],
                   grads[i], m[i], v[i]);
      }
      EXPECT_TRUE(same_bits(params, want)) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WeightDecay, OptimizerOracle,
                         ::testing::Values(0.0F, 5e-4F),
                         [](const auto& info) {
                           return info.param > 0.0F ? std::string{"on"}
                                                    : std::string{"off"};
                         });

}  // namespace
}  // namespace roadrunner::ml
