// Dataset storage for supervised learning problems.
//
// A Dataset holds an integer label for each of its N samples, a feature
// tensor X of shape [R, ...sample shape] holding the R rendered samples, and
// a row map from sample index to row of X. A dense dataset renders every
// sample and maps i to row i. The image scenario renders only the samples
// its test set and vehicles reference (R <= N): indices into the dataset
// stay what the split and the partition chose, and an unrendered sample
// has no row (kUnrendered). Per-agent data assignments in the simulator
// are DatasetViews: index subsets over a shared Dataset, so distributing
// 50 000 samples over 100 vehicles copies no pixels (the paper's Data
// Preprocessing module "splits the dataset into n subsets ... and assigns
// each subset to a simulated vehicle", §4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/tensor.hpp"

namespace roadrunner::ml {

class Dataset {
 public:
  /// Row-map entry of a sample that has no row in the feature tensor.
  static constexpr std::uint32_t kUnrendered = 0xFFFFFFFFU;

  Dataset() = default;

  /// Dense: x is [N, ...]; labels.size() must be N (dim 0 of x). Sample i
  /// is row i.
  Dataset(Tensor x, std::vector<std::int32_t> labels, std::size_t num_classes);

  /// Row-mapped: x is [R, ...]; labels and rows hold one entry per sample.
  /// rows[i] is sample i's row of x, or kUnrendered.
  Dataset(Tensor x, std::vector<std::int32_t> labels, std::size_t num_classes,
          std::vector<std::uint32_t> rows);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] bool empty() const { return labels_.empty(); }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

  /// Shape of one sample (feature shape without the leading N).
  [[nodiscard]] std::vector<std::size_t> sample_shape() const;
  [[nodiscard]] std::size_t sample_size() const { return sample_size_; }

  /// The rendered rows, [R, ...sample shape].
  [[nodiscard]] const Tensor& features() const { return x_; }
  [[nodiscard]] const std::vector<std::int32_t>& labels() const {
    return labels_;
  }

  [[nodiscard]] std::int32_t label(std::size_t i) const { return labels_[i]; }
  /// True if sample i (< size()) has a row in features().
  [[nodiscard]] bool rendered(std::size_t i) const {
    return rows_[i] != kUnrendered;
  }
  /// Pointer to the first float of sample i, which must be rendered.
  [[nodiscard]] const float* sample(std::size_t i) const {
    return x_.data() + std::size_t{rows_[i]} * sample_size_;
  }

  /// Per-class sample counts (length num_classes()).
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

 private:
  /// Checks the row map and the labels; sets sample_size_.
  void validate();

  Tensor x_;
  std::vector<std::int32_t> labels_;
  std::vector<std::uint32_t> rows_;
  std::size_t num_classes_ = 0;
  std::size_t sample_size_ = 0;
};

/// An index subset of a shared Dataset. Copyable and cheap; this is what
/// agents hold. The underlying Dataset must outlive all views (the scenario
/// layer keeps it in a shared_ptr). Every index names a rendered sample.
class DatasetView {
 public:
  DatasetView() = default;
  DatasetView(std::shared_ptr<const Dataset> base,
              std::vector<std::uint32_t> indices);

  /// View over the full dataset.
  static DatasetView all(std::shared_ptr<const Dataset> base);

  [[nodiscard]] std::size_t size() const { return indices_.size(); }
  [[nodiscard]] bool empty() const { return indices_.empty(); }
  [[nodiscard]] const Dataset& base() const { return *base_; }
  [[nodiscard]] const std::shared_ptr<const Dataset>& base_ptr() const {
    return base_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& indices() const {
    return indices_;
  }

  [[nodiscard]] std::int32_t label(std::size_t i) const {
    return base_->label(indices_[i]);
  }
  [[nodiscard]] const float* sample(std::size_t i) const {
    return base_->sample(indices_[i]);
  }

  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

  /// Gathers samples [first, first+count) of this view into a contiguous
  /// batch tensor of shape [count, ...sample shape] plus their labels.
  void gather_batch(std::size_t first, std::size_t count, Tensor& batch_x,
                    std::vector<std::int32_t>& batch_y) const;

  /// Concatenation of two views over the same base dataset.
  [[nodiscard]] DatasetView merged_with(const DatasetView& other) const;

 private:
  std::shared_ptr<const Dataset> base_;
  std::vector<std::uint32_t> indices_;
};

}  // namespace roadrunner::ml
