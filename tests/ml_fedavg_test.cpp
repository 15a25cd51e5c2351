// Federated Averaging tests, including the associativity property the
// paper's OPP strategy depends on (§5.2: "FL uses Federated Averaging,
// which is mathematically associative, to aggregate a new model through
// intermediate aggregation").
#include "ml/fedavg.hpp"

#include <gtest/gtest.h>

#include "ml/models.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

Weights random_weights(std::uint64_t seed) {
  util::Rng rng{seed};
  Network net = make_mlp(6, 8, 3);
  net.init_params(rng);
  return net.weights();
}

void expect_weights_near(const Weights& a, const Weights& b,
                         float tol = 1e-5F) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_TRUE(a[t].same_shape(b[t]));
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      ASSERT_NEAR(a[t][i], b[t][i], tol) << "tensor " << t << " elem " << i;
    }
  }
}

TEST(FedAvg, WeightedMeanOfScalars) {
  WeightedModel a{{Tensor{{1}, {1.0F}}}, 10.0};
  WeightedModel b{{Tensor{{1}, {4.0F}}}, 30.0};
  const WeightedModel avg = fed_avg({a, b});
  EXPECT_FLOAT_EQ(avg.weights[0][0], (1.0F * 10 + 4.0F * 30) / 40);
  EXPECT_DOUBLE_EQ(avg.data_amount, 40.0);
}

TEST(FedAvg, SingleContributionIsIdentity) {
  WeightedModel a{random_weights(1), 80.0};
  const WeightedModel avg = fed_avg({a});
  expect_weights_near(avg.weights, a.weights, 1e-7F);
  EXPECT_DOUBLE_EQ(avg.data_amount, 80.0);
}

TEST(FedAvg, ZeroWeightContributionIgnored) {
  WeightedModel a{random_weights(1), 50.0};
  WeightedModel b{random_weights(2), 0.0};
  const WeightedModel avg = fed_avg({a, b});
  expect_weights_near(avg.weights, a.weights, 1e-7F);
}

TEST(FedAvg, ValidatesInput) {
  EXPECT_THROW(fed_avg(std::vector<WeightedModel>{}), std::invalid_argument);
  WeightedModel a{random_weights(1), 10.0};
  WeightedModel negative{random_weights(2), -1.0};
  EXPECT_THROW(fed_avg({a, negative}), std::invalid_argument);
  WeightedModel zero{random_weights(2), 0.0};
  EXPECT_THROW(fed_avg({zero}), std::invalid_argument);
  WeightedModel mismatched{{Tensor{{2}}}, 5.0};
  EXPECT_THROW(fed_avg({a, mismatched}), std::invalid_argument);
}

// The OPP-critical property: aggregating intermediate aggregates equals the
// flat aggregate (paper Fig. 3 step 7), for arbitrary groupings.
class FedAvgAssociativity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FedAvgAssociativity, HierarchicalEqualsFlat) {
  util::Rng rng{GetParam()};
  const std::size_t n = 2 + rng.next_below(6);
  std::vector<WeightedModel> contributions;
  for (std::size_t i = 0; i < n; ++i) {
    contributions.push_back(WeightedModel{
        random_weights(GetParam() * 100 + i),
        static_cast<double>(20 + rng.next_below(100)),
    });
  }
  const WeightedModel flat = fed_avg(contributions);

  // Random split into two groups, each pre-aggregated (as reporters do).
  std::vector<WeightedModel> group_a, group_b;
  for (std::size_t i = 0; i < n; ++i) {
    (i == 0 || rng.bernoulli(0.5) ? group_a : group_b)
        .push_back(contributions[i]);
  }
  std::vector<WeightedModel> partials;
  partials.push_back(fed_avg(group_a));
  if (!group_b.empty()) partials.push_back(fed_avg(group_b));
  const WeightedModel hierarchical = fed_avg(partials);

  expect_weights_near(hierarchical.weights, flat.weights, 5e-5F);
  EXPECT_NEAR(hierarchical.data_amount, flat.data_amount, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Groupings, FedAvgAssociativity,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(FedAvg, PairwiseChainEqualsFlatForEqualGrouping) {
  // Folding returns in one by one (a chain of two-model fed_avg calls) must
  // match the flat average of all of them.
  std::vector<WeightedModel> all;
  for (std::uint64_t i = 0; i < 5; ++i) {
    all.push_back(WeightedModel{random_weights(i), 10.0 * (i + 1)});
  }
  WeightedModel chained = all[0];
  for (std::size_t i = 1; i < all.size(); ++i) {
    chained = fed_avg({chained, all[i]});
  }
  const WeightedModel flat = fed_avg(all);
  expect_weights_near(chained.weights, flat.weights, 5e-5F);
}

}  // namespace
}  // namespace roadrunner::ml
