#include "ml/optimizer.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace roadrunner::ml
