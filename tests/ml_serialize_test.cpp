#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include "ml/models.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

TEST(Serialize, RoundTripIsIdentity) {
  util::Rng rng{1};
  Network net = make_mlp(12, 8, 3);
  net.init_params(rng);
  const Weights original = net.weights();
  const auto bytes = serialize_weights(original);
  const Weights restored = deserialize_weights(bytes);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i], original[i]) << "tensor " << i;
  }
}

TEST(Serialize, ByteSizeMatchesDeclaredFormula) {
  util::Rng rng{2};
  Network net = make_paper_cnn();
  prime_and_init(net, {3, 32, 32}, rng);
  const Weights w = net.weights();
  EXPECT_EQ(serialize_weights(w).size(), weights_byte_size(w));
}

TEST(Serialize, EmptyWeights) {
  const Weights empty;
  const auto bytes = serialize_weights(empty);
  EXPECT_EQ(bytes.size(), 4U);
  EXPECT_TRUE(deserialize_weights(bytes).empty());
}

TEST(Serialize, TruncatedHeaderThrows) {
  std::vector<std::uint8_t> bytes{1, 0};
  EXPECT_THROW(deserialize_weights(bytes), std::runtime_error);
}

TEST(Serialize, TruncatedPayloadThrows) {
  Weights w;
  w.emplace_back(std::vector<std::size_t>{4});
  auto bytes = serialize_weights(w);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(deserialize_weights(bytes), std::runtime_error);
}

TEST(Serialize, TrailingGarbageThrows) {
  Weights w;
  w.emplace_back(std::vector<std::size_t>{2});
  auto bytes = serialize_weights(w);
  bytes.push_back(0xAB);
  EXPECT_THROW(deserialize_weights(bytes), std::runtime_error);
}

TEST(Serialize, AbsurdRankRejected) {
  // count=1, rank=99 -> rejected before any allocation.
  std::vector<std::uint8_t> bytes{1, 0, 0, 0, 99, 0, 0, 0};
  EXPECT_THROW(deserialize_weights(bytes), std::runtime_error);
}

TEST(Serialize, PreservesExactFloatBits) {
  Weights w;
  w.emplace_back(std::vector<std::size_t>{3},
                 std::vector<float>{-0.0F, 1e-38F, 3.14159265F});
  const Weights r = deserialize_weights(serialize_weights(w));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(r[0][i]),
              std::bit_cast<std::uint32_t>(w[0][i]));
  }
}

TEST(ModelTable, StoresEachDistinctModelOnceAndReadsBack) {
  // b differs from a only at index 1, which the fingerprint does not
  // sample: the two collide on the fingerprint and must still get their
  // own entries, found by comparing every byte.
  std::vector<float> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i);
  }
  const Weights a{Tensor{{1000}, values}, Tensor{{2}, {0.5F, -0.5F}}};
  Weights b = a;
  b[0][1] = 7.0F;
  const Weights empty;

  ModelTable table;
  EXPECT_EQ(table.intern(a), 0U);
  EXPECT_EQ(table.intern(b), 1U);
  EXPECT_EQ(table.intern(empty), 2U);
  EXPECT_EQ(table.intern(Weights{a}), 0U);
  EXPECT_EQ(table.intern(b), 1U);
  EXPECT_EQ(table.intern(empty), 2U);
  EXPECT_EQ(table.size(), 3U);
  EXPECT_EQ(table.shared(), 3U);

  const ModelTableView view{table.seal(), "test"};
  ASSERT_EQ(view.size(), 3U);
  EXPECT_EQ(serialize_weights(view[0]), serialize_weights(a));
  EXPECT_EQ(serialize_weights(view[1]), serialize_weights(b));
  EXPECT_TRUE(view[2].empty());

  // A cleared table starts over.
  table.clear();
  EXPECT_EQ(table.intern(b), 0U);
  EXPECT_EQ(table.size(), 1U);
  EXPECT_EQ(table.shared(), 0U);
}

}  // namespace
}  // namespace roadrunner::ml
