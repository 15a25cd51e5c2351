// Tests for the Data Preprocessing module: synthetic generators and
// partitioners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <set>
#include <string>

#include "data/gaussian_blobs.hpp"
#include "data/partition.hpp"
#include "data/synthetic_images.hpp"

namespace roadrunner::data {
namespace {

// ------------------------------------------------------- synthetic images --

TEST(SyntheticImages, ShapeAndLabels) {
  SyntheticImageConfig cfg;
  const auto ds = make_synthetic_images(64, cfg);
  EXPECT_EQ(ds.size(), 64U);
  EXPECT_EQ(ds.features().shape(),
            (std::vector<std::size_t>{64, 3, 32, 32}));
  for (std::int32_t y : ds.labels()) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 10);
  }
}

TEST(SyntheticImages, DeterministicGivenSeed) {
  SyntheticImageConfig cfg;
  cfg.seed = 77;
  const auto a = make_synthetic_images(16, cfg);
  const auto b = make_synthetic_images(16, cfg);
  EXPECT_EQ(a.features(), b.features());
  EXPECT_EQ(a.labels(), b.labels());
  cfg.seed = 78;
  const auto c = make_synthetic_images(16, cfg);
  EXPECT_FALSE(a.features() == c.features());
}

// The sequential generator make_synthetic_images replaced: one stream, each
// image rendered in full before the next label is drawn. It is the oracle
// for the two-pass build (labels and jumps first, then a parallel render).
ml::Dataset reference_synthetic_images(std::size_t count,
                                       const SyntheticImageConfig& config) {
  util::Rng rng{config.seed};
  const std::size_t s = config.side, c = config.channels;
  ml::Tensor x{{count, c, s, s}};
  std::vector<std::int32_t> labels(count);
  const std::size_t sample_size = c * s * s;
  for (std::size_t n = 0; n < count; ++n) {
    const auto label =
        static_cast<std::int32_t>(rng.next_below(config.num_classes));
    labels[n] = label;
    ml::Tensor img = render_synthetic_image(label, config, rng);
    std::copy_n(img.data(), sample_size, x.data() + n * sample_size);
  }
  return ml::Dataset{std::move(x), std::move(labels), config.num_classes};
}

/// memcmp of `bytes` bytes; an empty range compares equal without passing
/// memcmp the null pointers an empty container may hold.
int compare_bytes(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 ? 0 : std::memcmp(a, b, bytes);
}

void expect_same_bytes(const ml::Dataset& got, const ml::Dataset& want) {
  ASSERT_EQ(got.features().shape(), want.features().shape());
  ASSERT_EQ(got.labels().size(), want.labels().size());
  EXPECT_EQ(0, compare_bytes(got.features().data(), want.features().data(),
                             want.features().size() * sizeof(float)));
  EXPECT_EQ(0, compare_bytes(got.labels().data(), want.labels().data(),
                             want.labels().size() * sizeof(std::int32_t)));
  EXPECT_EQ(got.num_classes(), want.num_classes());
}

struct OracleCase {
  const char* name;
  std::size_t count;
  SyntheticImageConfig config;
};

// gtest would otherwise print the case's raw bytes, its name pointer
// included, into the registered test name, which then changes with every
// address layout.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

class SyntheticImagesOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SyntheticImagesOracle, TwoPassBuildMatchesSequentialBytes) {
  const OracleCase& c = GetParam();
  expect_same_bytes(make_synthetic_images(c.count, c.config),
                    reference_synthetic_images(c.count, c.config));
}

SyntheticImageConfig with(std::size_t side, std::size_t channels,
                          std::size_t classes, int max_shift,
                          std::uint64_t seed) {
  SyntheticImageConfig cfg;
  cfg.side = side;
  cfg.channels = channels;
  cfg.num_classes = classes;
  cfg.max_shift = max_shift;
  cfg.seed = seed;
  return cfg;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyntheticImagesOracle,
    ::testing::Values(
        // Counts around the pool's thread count: none, one, fewer than the
        // workers, and many more than them.
        OracleCase{"count0", 0, with(32, 3, 10, 5, 3)},
        OracleCase{"count1", 1, with(32, 3, 10, 5, 4)},
        OracleCase{"count3", 3, with(32, 3, 10, 5, 5)},
        OracleCase{"count257", 257, with(32, 3, 10, 5, 6)},
        OracleCase{"side7", 40, with(7, 3, 10, 5, 7)},
        OracleCase{"channels1", 40, with(32, 1, 10, 5, 8)},
        OracleCase{"classes1", 40, with(32, 3, 1, 5, 9)},
        OracleCase{"shift0", 40, with(32, 3, 10, 0, 10)},
        OracleCase{"odd", 40, with(7, 1, 1, 0, 11)}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string{info.param.name};
    });

/// FNV-1a-64 over the feature bytes, then the label bytes.
std::uint64_t fnv1a(const ml::Dataset& ds) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ULL;
    }
  };
  mix(ds.features().data(), ds.features().size() * sizeof(float));
  mix(ds.labels().data(), ds.labels().size() * sizeof(std::int32_t));
  return h;
}

// Golden bytes of the image pool the ledger's fl_cnn workload builds (seed
// 31, train_pool + test_size images, default geometry) at its full and its
// smoke size. Any change to the generator's draws or arithmetic shows here.
TEST(SyntheticImages, GoldenHashesPinDatasetBytes) {
  SyntheticImageConfig cfg;
  cfg.seed = 31ULL ^ 0xDA7A5EEDULL;
  EXPECT_EQ(fnv1a(make_synthetic_images(9500, cfg)), 0x451a240eabdbffc4ULL);
  EXPECT_EQ(fnv1a(make_synthetic_images(1100, cfg)), 0x465316f693142418ULL);
}

// Rendering a subset of the plan gives each rendered sample the bytes the
// dense build gives it, keeps every label, and leaves the rest unrendered.
TEST(SyntheticImages, RenderedRowsMatchTheDenseBuild) {
  SyntheticImageConfig cfg;
  cfg.seed = 12;
  const ml::Dataset dense = make_synthetic_images(40, cfg);
  const SyntheticImagePlan plan = plan_synthetic_images(40, cfg);
  const ml::Dataset some = render_synthetic_images(plan, {39, 3, 17, 3, 0});
  EXPECT_EQ(some.labels(), dense.labels());
  EXPECT_EQ(some.features().dim(0), 4U);
  const std::set<std::size_t> rendered{0, 3, 17, 39};
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_EQ(some.rendered(i), rendered.contains(i)) << i;
    if (!some.rendered(i)) continue;
    EXPECT_EQ(0, std::memcmp(some.sample(i), dense.sample(i),
                             dense.sample_size() * sizeof(float)))
        << i;
  }
  EXPECT_EQ(render_synthetic_images(plan, {}).features().dim(0), 0U);
  EXPECT_THROW(render_synthetic_images(plan, {40}), std::out_of_range);
}

TEST(SyntheticImages, ClassesAreStatisticallyDistinct) {
  // Mean images of different classes must differ: averaging over many
  // samples cancels noise and per-sample nuisance, leaving the pattern.
  SyntheticImageConfig cfg;
  cfg.noise_sigma = 0.5;
  cfg.max_shift = 0;  // keep patterns aligned for the mean comparison
  util::Rng rng{5};
  constexpr int kPerClass = 40;
  std::vector<ml::Tensor> means;
  for (std::int32_t c = 0; c < 10; ++c) {
    ml::Tensor mean{{3, 32, 32}};
    for (int i = 0; i < kPerClass; ++i) {
      mean.add_(render_synthetic_image(c, cfg, rng));
    }
    mean.mul_(1.0F / kPerClass);
    means.push_back(std::move(mean));
  }
  for (std::size_t a = 0; a < means.size(); ++a) {
    for (std::size_t b = a + 1; b < means.size(); ++b) {
      const double gap = (means[a] - means[b]).norm();
      EXPECT_GT(gap, 3.0) << "classes " << a << " and " << b
                          << " are not distinguishable";
    }
  }
}

TEST(SyntheticImages, ValidatesConfig) {
  SyntheticImageConfig cfg;
  cfg.num_classes = 0;
  EXPECT_THROW(make_synthetic_images(4, cfg), std::invalid_argument);
  cfg.num_classes = 11;
  EXPECT_THROW(make_synthetic_images(4, cfg), std::invalid_argument);
  cfg.num_classes = 10;
  util::Rng rng{1};
  EXPECT_THROW(render_synthetic_image(-1, cfg, rng), std::invalid_argument);
  EXPECT_THROW(render_synthetic_image(10, cfg, rng), std::invalid_argument);
}

// --------------------------------------------------------- gaussian blobs --

TEST(GaussianBlobs, SeparationControlsLearnability) {
  GaussianBlobConfig tight;
  tight.center_radius = 10.0;
  tight.spread = 0.5;
  const auto ds = make_gaussian_blobs(200, tight);
  // Nearest-centroid classification on the true means should be easy; we
  // verify separation via within- vs between-class distances.
  std::vector<std::vector<const float*>> by_class(tight.num_classes);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    by_class[static_cast<std::size_t>(ds.label(i))].push_back(ds.sample(i));
  }
  for (const auto& members : by_class) ASSERT_GT(members.size(), 10U);
}

TEST(GaussianBlobs, Validates) {
  GaussianBlobConfig cfg;
  cfg.num_classes = 0;
  EXPECT_THROW(make_gaussian_blobs(4, cfg), std::invalid_argument);
  cfg.num_classes = 2;
  cfg.dimensions = 0;
  EXPECT_THROW(make_gaussian_blobs(4, cfg), std::invalid_argument);
}

// ------------------------------------------------------------ partitioning --

ml::DatasetView blob_pool(std::size_t n, std::uint64_t seed = 9) {
  GaussianBlobConfig cfg;
  cfg.num_classes = 4;
  cfg.seed = seed;
  return ml::DatasetView::all(
      std::make_shared<ml::Dataset>(make_gaussian_blobs(n, cfg)));
}

TEST(TrainTestSplit, PartitionsWithoutOverlap) {
  auto base = std::make_shared<ml::Dataset>(make_gaussian_blobs(100));
  util::Rng rng{1};
  const auto split = train_test_split(base, 0.2, rng);
  EXPECT_EQ(split.test.size(), 20U);
  EXPECT_EQ(split.train.size(), 80U);
  std::set<std::uint32_t> seen(split.train.indices().begin(),
                               split.train.indices().end());
  for (std::uint32_t i : split.test.indices()) {
    EXPECT_FALSE(seen.contains(i));
  }
}

TEST(TrainTestSplit, Validates) {
  auto base = std::make_shared<ml::Dataset>(make_gaussian_blobs(10));
  util::Rng rng{1};
  EXPECT_THROW(train_test_split(base, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(base, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(nullptr, 0.1, rng), std::invalid_argument);
}

TEST(PartitionIid, DisjointFixedSizeParts) {
  auto pool = blob_pool(200);
  util::Rng rng{2};
  const auto parts = partition_iid(pool, 10, 15, rng);
  ASSERT_EQ(parts.size(), 10U);
  std::set<std::uint32_t> seen;
  for (const auto& part : parts) {
    EXPECT_EQ(part.size(), 15U);
    for (std::uint32_t i : part.indices()) {
      EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    }
  }
}

TEST(PartitionIid, ThrowsWhenPoolTooSmall) {
  auto pool = blob_pool(50);
  util::Rng rng{2};
  EXPECT_THROW(partition_iid(pool, 10, 6, rng), std::invalid_argument);
}

TEST(PartitionClassSkew, RespectsClassCountAndSize) {
  auto pool = blob_pool(2000);
  util::Rng rng{3};
  const auto parts = partition_class_skew(pool, 12, 40, 2, rng);
  ASSERT_EQ(parts.size(), 12U);
  for (const auto& part : parts) {
    EXPECT_EQ(part.size(), 40U);
    const auto hist = part.class_histogram();
    int classes_present = 0;
    for (std::size_t c : hist) classes_present += c > 0 ? 1 : 0;
    EXPECT_LE(classes_present, 2);
    EXPECT_GE(classes_present, 1);
  }
}

TEST(PartitionClassSkew, PartsAreDisjoint) {
  auto pool = blob_pool(2000);
  util::Rng rng{4};
  const auto parts = partition_class_skew(pool, 8, 30, 1, rng);
  std::set<std::uint32_t> seen;
  for (const auto& part : parts) {
    for (std::uint32_t i : part.indices()) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
}

TEST(PartitionClassSkew, ExhaustionThrowsInsteadOfDuplicating) {
  auto pool = blob_pool(100);  // ~25 per class
  util::Rng rng{5};
  EXPECT_THROW(partition_class_skew(pool, 20, 30, 1, rng),
               std::invalid_argument);
}

TEST(PartitionClassSkew, ValidatesArguments) {
  auto pool = blob_pool(100);
  util::Rng rng{5};
  EXPECT_THROW(partition_class_skew(pool, 0, 10, 1, rng),
               std::invalid_argument);
  EXPECT_THROW(partition_class_skew(pool, 2, 10, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(partition_class_skew(pool, 2, 10, 5, rng),
               std::invalid_argument);  // only 4 classes exist
}

TEST(PartitionDirichlet, AssignsEverySampleExactlyOnce) {
  auto pool = blob_pool(500);
  util::Rng rng{6};
  const auto parts = partition_dirichlet(pool, 7, 0.5, rng);
  ASSERT_EQ(parts.size(), 7U);
  std::set<std::uint32_t> seen;
  std::size_t total = 0;
  for (const auto& part : parts) {
    total += part.size();
    for (std::uint32_t i : part.indices()) {
      EXPECT_TRUE(seen.insert(i).second);
    }
  }
  EXPECT_EQ(total, 500U);
}

TEST(PartitionDirichlet, Validates) {
  auto pool = blob_pool(50);
  util::Rng rng{6};
  EXPECT_THROW(partition_dirichlet(pool, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(partition_dirichlet(pool, 2, 0.0, rng), std::invalid_argument);
}

// Property: skewness ordering across distribution families. IID must be the
// least skewed, single-class the most, and Dirichlet monotone in 1/alpha.
TEST(PartitionSkewness, OrdersDistributionFamilies) {
  auto pool = blob_pool(4000, 21);
  util::Rng rng{7};
  const auto iid = partition_iid(pool, 20, 80, rng);
  const auto skew1 = partition_class_skew(pool, 20, 80, 1, rng);
  const auto skew2 = partition_class_skew(pool, 20, 80, 2, rng);
  const auto dir_flat = partition_dirichlet(pool, 20, 100.0, rng);
  const auto dir_peaky = partition_dirichlet(pool, 20, 0.1, rng);

  const double s_iid = partition_skewness(iid, pool);
  const double s_skew1 = partition_skewness(skew1, pool);
  const double s_skew2 = partition_skewness(skew2, pool);
  const double s_flat = partition_skewness(dir_flat, pool);
  const double s_peaky = partition_skewness(dir_peaky, pool);

  EXPECT_LT(s_iid, 0.2);
  EXPECT_GT(s_skew1, 0.7);
  EXPECT_LT(s_skew2, s_skew1);
  EXPECT_LT(s_flat, s_peaky);
  EXPECT_LT(s_iid, s_peaky);
}

}  // namespace
}  // namespace roadrunner::data
