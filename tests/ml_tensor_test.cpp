#include "ml/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace roadrunner::ml {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t{{2, 3}};
  EXPECT_EQ(t.size(), 6U);
  EXPECT_EQ(t.rank(), 2U);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, ConstructWithDataValidatesSize) {
  EXPECT_NO_THROW((Tensor{{2, 2}, {1, 2, 3, 4}}));
  EXPECT_THROW((Tensor{{2, 2}, {1, 2, 3}}), std::invalid_argument);
}

TEST(Tensor, ShapeVolume) {
  EXPECT_EQ(shape_volume({}), 0U);
  EXPECT_EQ(shape_volume({5}), 5U);
  EXPECT_EQ(shape_volume({2, 3, 4}), 24U);
  EXPECT_EQ(shape_volume({2, 0, 4}), 0U);
}

TEST(Tensor, MultiIndexAccessors) {
  Tensor t{{2, 3}, {0, 1, 2, 3, 4, 5}};
  EXPECT_EQ(t.at2(0, 2), 2.0F);
  EXPECT_EQ(t.at2(1, 0), 3.0F);
  Tensor u{{2, 2, 2, 2}};
  u.at4(1, 0, 1, 0) = 9.0F;
  EXPECT_EQ(u[((1 * 2 + 0) * 2 + 1) * 2 + 0], 9.0F);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t{{3}};
  EXPECT_NO_THROW((void)t.at(2));
  EXPECT_THROW((void)t.at(3), std::out_of_range);
  EXPECT_THROW((void)t.dim(1), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t{{2, 3}, {0, 1, 2, 3, 4, 5}};
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3U);
  EXPECT_EQ(r[4], 4.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a{{2}, {1, 2}};
  Tensor b{{2}, {10, 20}};
  EXPECT_EQ((a + b)[1], 22.0F);
  EXPECT_EQ((b - a)[0], 9.0F);
  EXPECT_EQ((a * 3.0F)[1], 6.0F);
  a.add_scaled_(b, 0.5F);
  EXPECT_EQ(a[0], 6.0F);
  EXPECT_EQ(a[1], 12.0F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a{{2}};
  Tensor b{{3}};
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.sub_(b), std::invalid_argument);
  EXPECT_THROW(a.add_scaled_(b, 1.0F), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t{{4}, {-1, 2, -3, 4}};
  EXPECT_DOUBLE_EQ(t.sum(), 2.0);
  EXPECT_EQ(t.max(), 4.0F);
  EXPECT_EQ(t.min(), -3.0F);
  EXPECT_NEAR(t.norm(), std::sqrt(1.0 + 4 + 9 + 16), 1e-12);
}

TEST(Tensor, EqualityAndShapeString) {
  Tensor a{{2, 2}, {1, 2, 3, 4}};
  Tensor b = a;
  EXPECT_EQ(a, b);
  b[0] = 9.0F;
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.shape_string(), "[2x2]");
}

TEST(Matmul, KnownProduct) {
  Tensor a{{2, 3}, {1, 2, 3, 4, 5, 6}};
  Tensor b{{3, 2}, {7, 8, 9, 10, 11, 12}};
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(c.at2(0, 0), 58.0F);
  EXPECT_EQ(c.at2(0, 1), 64.0F);
  EXPECT_EQ(c.at2(1, 0), 139.0F);
  EXPECT_EQ(c.at2(1, 1), 154.0F);
}

TEST(Matmul, ShapeErrors) {
  Tensor a{{2, 3}};
  Tensor b{{2, 2}};
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Tensor c{{3}};
  EXPECT_THROW(matmul(a, c), std::invalid_argument);
}

TEST(Matmul, AccumulateFlag) {
  Tensor a{{1, 1}, {2}};
  Tensor b{{1, 1}, {3}};
  Tensor c{{1, 1}, {100}};
  matmul_into(a, b, c, /*accumulate=*/true);
  EXPECT_EQ(c[0], 106.0F);
  matmul_into(a, b, c, /*accumulate=*/false);
  EXPECT_EQ(c[0], 6.0F);
}

// Property: the transposed variants agree with explicit transposition,
// exactly, since all three sum each element in ascending k from zero.
// Shapes up to 40 cross the GEMM kernel's 6-row and 8/16/32-column register
// tiles, so full and edge tiles of every operand layout are exercised.
class MatmulVariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatmulVariants, TransposedVariantsAgree) {
  util::Rng rng{GetParam()};
  const std::size_t m = 1 + rng.next_below(40);
  const std::size_t k = 1 + rng.next_below(40);
  const std::size_t n = 1 + rng.next_below(40);

  auto fill = [&](Tensor& t) {
    for (float& v : t.values()) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  };
  Tensor a{{m, k}}, b{{k, n}};
  fill(a);
  fill(b);
  const Tensor expect = matmul(a, b);

  // gemm reading a stored as [k, m] (the backward dW layout).
  Tensor a_t{{k, m}};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) a_t.at2(j, i) = a.at2(i, j);
  }
  Tensor via_at{{m, n}};
  gemm(m, n, k, a_t.data(), 1, m, b.data(), n, 1, via_at.data(), false);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(via_at[i], expect[i]);
  }

  // gemm reading b stored as [n, k] (the Linear forward layout).
  Tensor b_t{{n, k}};
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) b_t.at2(j, i) = b.at2(i, j);
  }
  Tensor via_bt{{m, n}};
  gemm(m, n, k, a.data(), k, 1, b_t.data(), 1, k, via_bt.data(), false);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(via_bt[i], expect[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulVariants,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace roadrunner::ml
