#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

using roadrunner::testing::tiny_dataset;

TEST(Dataset, ConstructionAndAccessors) {
  auto ds = tiny_dataset(10, {2, 3}, 4);
  EXPECT_EQ(ds->size(), 10U);
  EXPECT_EQ(ds->num_classes(), 4U);
  EXPECT_EQ(ds->sample_size(), 6U);
  EXPECT_EQ(ds->sample_shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(ds->sample(3), ds->features().data() + 3 * 6);
}

TEST(Dataset, ValidatesLabels) {
  Tensor x{{2, 3}};
  EXPECT_THROW((Dataset{x, {0, 5}, 4}), std::invalid_argument);
  EXPECT_THROW((Dataset{x, {0, -1}, 4}), std::invalid_argument);
  EXPECT_THROW((Dataset{x, {0}, 4}), std::invalid_argument);  // N mismatch
}

TEST(Dataset, RowMapPlacesRenderedSamples) {
  constexpr std::uint32_t kHole = Dataset::kUnrendered;
  const auto ds = std::make_shared<const Dataset>(
      Tensor{{2, 3}, {1, 2, 3, 4, 5, 6}}, std::vector<std::int32_t>{0, 1, 2, 1},
      3, std::vector<std::uint32_t>{1, kHole, 0, kHole});
  EXPECT_EQ(ds->size(), 4U);
  EXPECT_EQ(ds->sample_size(), 3U);
  EXPECT_EQ(ds->class_histogram(), (std::vector<std::size_t>{1, 2, 1}));
  EXPECT_TRUE(ds->rendered(0));
  EXPECT_FALSE(ds->rendered(1));
  EXPECT_EQ(ds->sample(0)[0], 4.0F);
  EXPECT_EQ(ds->sample(2)[0], 1.0F);

  // A view reads only rendered samples.
  const DatasetView view{ds, {2, 0}};
  EXPECT_EQ(view.sample(0), ds->features().data());
  EXPECT_EQ(view.label(1), 0);
  EXPECT_THROW((DatasetView{ds, {0, 1}}), std::out_of_range);
  EXPECT_THROW((DatasetView{ds, {4}}), std::out_of_range);
  EXPECT_THROW(DatasetView::all(ds), std::out_of_range);
}

TEST(Dataset, ValidatesRowMap) {
  const Tensor x{{2, 3}};
  const std::vector<std::int32_t> labels{0, 1, 2};
  EXPECT_THROW((Dataset{x, labels, 3, {0, 1}}), std::invalid_argument);
  EXPECT_THROW((Dataset{x, labels, 3, {0, 1, 2}}), std::invalid_argument);
  EXPECT_NO_THROW((Dataset{x, labels, 3, {1, Dataset::kUnrendered, 0}}));
}

TEST(Dataset, ClassHistogramSumsToSize) {
  auto ds = tiny_dataset(50, {4}, 3);
  const auto hist = ds->class_histogram();
  std::size_t total = 0;
  for (std::size_t c : hist) total += c;
  EXPECT_EQ(total, 50U);
}

TEST(DatasetView, AllCoversEverything) {
  auto ds = tiny_dataset(12, {4}, 3);
  const auto view = DatasetView::all(ds);
  EXPECT_EQ(view.size(), 12U);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(view.label(i), ds->label(i));
    EXPECT_EQ(view.sample(i), ds->sample(i));
  }
}

TEST(DatasetView, SubsetIndices) {
  auto ds = tiny_dataset(10, {4}, 3);
  DatasetView view{ds, {7, 2, 2}};
  EXPECT_EQ(view.size(), 3U);
  EXPECT_EQ(view.label(0), ds->label(7));
  EXPECT_EQ(view.label(1), ds->label(2));
  EXPECT_EQ(view.label(2), ds->label(2));  // duplicates allowed
}

TEST(DatasetView, ValidatesIndices) {
  auto ds = tiny_dataset(5, {4}, 3);
  EXPECT_THROW((DatasetView{ds, {5}}), std::out_of_range);
  EXPECT_THROW((DatasetView{nullptr, {}}), std::invalid_argument);
}

TEST(DatasetView, GatherBatchCopiesCorrectSamples) {
  auto ds = tiny_dataset(8, {2}, 2);
  DatasetView view{ds, {3, 1, 6, 0}};
  Tensor batch;
  std::vector<std::int32_t> labels;
  view.gather_batch(1, 2, batch, labels);
  ASSERT_EQ(batch.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(batch[0], ds->sample(1)[0]);
  EXPECT_EQ(batch[1], ds->sample(1)[1]);
  EXPECT_EQ(batch[2], ds->sample(6)[0]);
  EXPECT_EQ(labels[0], ds->label(1));
  EXPECT_EQ(labels[1], ds->label(6));
  EXPECT_THROW(view.gather_batch(3, 2, batch, labels), std::out_of_range);
}

TEST(DatasetView, MergedWithConcatenates) {
  auto ds = tiny_dataset(10, {4}, 3);
  DatasetView a{ds, {1, 2}};
  DatasetView b{ds, {3}};
  const auto merged = a.merged_with(b);
  ASSERT_EQ(merged.size(), 3U);
  EXPECT_EQ(merged.indices(), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(DatasetView, MergedWithRejectsDifferentBases) {
  auto ds1 = tiny_dataset(5, {4}, 3, 1);
  auto ds2 = tiny_dataset(5, {4}, 3, 2);
  DatasetView a{ds1, {0}};
  DatasetView b{ds2, {0}};
  EXPECT_THROW(a.merged_with(b), std::invalid_argument);
}

TEST(DatasetView, HistogramOfSubset) {
  Tensor x{{4, 1}};
  Dataset ds{x, {0, 0, 1, 2}, 3};
  auto shared = std::make_shared<Dataset>(std::move(ds));
  DatasetView view{shared, {0, 1, 2}};
  const auto hist = view.class_histogram();
  EXPECT_EQ(hist, (std::vector<std::size_t>{2, 1, 0}));
}

}  // namespace
}  // namespace roadrunner::ml
