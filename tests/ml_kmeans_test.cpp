#include "ml/kmeans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/gaussian_blobs.hpp"

namespace roadrunner::ml {
namespace {

DatasetView separated_blobs(std::size_t n, std::uint64_t seed = 3) {
  data::GaussianBlobConfig cfg;
  cfg.num_classes = 4;
  cfg.dimensions = 8;
  cfg.center_radius = 8.0;  // well separated
  cfg.spread = 0.8;
  cfg.seed = seed;
  return DatasetView::all(
      std::make_shared<Dataset>(data::make_gaussian_blobs(n, cfg)));
}

TEST(KMeans, ConvergesOnSeparatedBlobs) {
  auto data = separated_blobs(400);
  util::Rng rng{1};
  KMeansModel model = kmeans_init(data, 4, rng);
  const auto report = kmeans_fit(model, data);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 0U);
  EXPECT_GT(kmeans_purity(model, data), 0.95);
}

TEST(KMeans, InertiaDecreasesDuringFit) {
  auto data = separated_blobs(300, 9);
  util::Rng rng{2};
  KMeansModel model = kmeans_init(data, 4, rng);
  const double before = kmeans_inertia(model, data);
  kmeans_fit(model, data);
  const double after = kmeans_inertia(model, data);
  EXPECT_LE(after, before + 1e-9);
}

TEST(KMeans, AssignMatchesNearestCentroid) {
  auto data = separated_blobs(100);
  util::Rng rng{3};
  KMeansModel model = kmeans_init(data, 4, rng);
  kmeans_fit(model, data);
  const auto assign = kmeans_assign(model, data);
  ASSERT_EQ(assign.size(), 100U);
  for (std::int32_t a : assign) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

TEST(KMeans, MoreClustersNeverWorseInertia) {
  auto data = separated_blobs(200, 17);
  util::Rng rng{4};
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k : {1U, 2U, 4U, 8U}) {
    std::string label = "k";
    label += std::to_string(k);  // not "k" + ...: GCC 12's -Wrestrict
    util::Rng fork = rng.fork(label);
    KMeansModel model = kmeans_init(data, k, fork);
    kmeans_fit(model, data);
    const double inertia = kmeans_inertia(model, data);
    EXPECT_LE(inertia, prev * 1.05);  // allow local-minimum slack
    prev = inertia;
  }
}

TEST(KMeans, ValidatesInput) {
  auto data = separated_blobs(10);
  util::Rng rng{5};
  EXPECT_THROW(kmeans_init(data, 0, rng), std::invalid_argument);
  EXPECT_THROW(kmeans_init(data, 11, rng), std::invalid_argument);
  KMeansModel empty;
  EXPECT_THROW(kmeans_fit(empty, data), std::invalid_argument);
}

// ----- determinism + degenerate inputs (the GMM init path depends on these
// behaviors: ml::gmm_init seeds its components from k-means) ----------------

TEST(KMeans, EmptyClusterKeepsPreviousCentroid) {
  auto data = separated_blobs(120, 21);
  util::Rng rng{6};
  KMeansModel model = kmeans_init(data, 4, rng);
  kmeans_fit(model, data);
  // Plant one centroid far outside the data's support: no point assigns to
  // it, so the empty-cluster rule must keep it exactly where it was while
  // the live centroids keep fitting.
  const std::size_t d = data.base().sample_size();
  std::vector<float> planted(d, 1.0e6F);
  std::copy(planted.begin(), planted.end(), model.centroids.data());
  kmeans_fit(model, data);
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_FLOAT_EQ(model.centroids[j], 1.0e6F);
  }
  // The remaining clusters still explain the data (finite, sane inertia).
  const double inertia = kmeans_inertia(model, data);
  EXPECT_TRUE(std::isfinite(inertia));
  const auto assign = kmeans_assign(model, data);
  EXPECT_EQ(std::count(assign.begin(), assign.end(), 0), 0);
}

TEST(KMeans, MoreClustersThanPointsThrows) {
  auto data = separated_blobs(5);
  util::Rng rng{7};
  EXPECT_THROW(kmeans_init(data, 6, rng), std::invalid_argument);
  // k == n is the legal boundary: every point can seed its own centre and
  // the fit collapses inertia to ~0.
  KMeansModel model = kmeans_init(data, 5, rng);
  kmeans_fit(model, data);
  EXPECT_NEAR(kmeans_inertia(model, data), 0.0, 1e-6);
}

TEST(KMeans, AllIdenticalPointsDegenerate) {
  // Every sample equal: k-means++ hits its zero-total branch and must not
  // divide by zero; the fit converges with zero inertia.
  auto base = std::make_shared<Dataset>(
      Tensor{{8, 3}, std::vector<float>(24, 2.5F)},
      std::vector<std::int32_t>(8, 0), 1);
  auto data = DatasetView::all(base);
  util::Rng rng{8};
  KMeansModel model = kmeans_init(data, 3, rng);
  const auto report = kmeans_fit(model, data);
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(kmeans_inertia(model, data), 0.0, 1e-9);
}

TEST(KMeans, PermutedInputOrderSameFit) {
  auto data = separated_blobs(200, 33);
  util::Rng rng{9};
  const KMeansModel init = kmeans_init(data, 4, rng);

  // Same init, reversed sample order: Lloyd assignments are per-point and
  // the centroid sums accumulate in double, so the fitted centroids must
  // agree to float rounding — input order is not allowed to steer the fit.
  std::vector<std::uint32_t> reversed(data.indices().rbegin(),
                                      data.indices().rend());
  DatasetView permuted{data.base_ptr(), std::move(reversed)};

  KMeansModel a = init;
  KMeansModel b = init;
  kmeans_fit(a, data);
  kmeans_fit(b, permuted);
  ASSERT_TRUE(a.centroids.same_shape(b.centroids));
  for (std::size_t i = 0; i < a.centroids.size(); ++i) {
    EXPECT_NEAR(a.centroids[i], b.centroids[i], 1e-4)
        << "centroid coordinate " << i << " depends on input order";
  }
  EXPECT_NEAR(kmeans_inertia(a, data), kmeans_inertia(b, data), 1e-6);
}

TEST(KMeans, DeterministicGivenSeed) {
  auto data = separated_blobs(150);
  auto run = [&](std::uint64_t seed) {
    util::Rng rng{seed};
    KMeansModel m = kmeans_init(data, 4, rng);
    kmeans_fit(m, data);
    return m.centroids;
  };
  EXPECT_EQ(run(7), run(7));
}

}  // namespace
}  // namespace roadrunner::ml
