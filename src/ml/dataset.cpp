#include "ml/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace roadrunner::ml {

Dataset::Dataset(Tensor x, std::vector<std::int32_t> labels,
                 std::size_t num_classes)
    : x_{std::move(x)}, labels_{std::move(labels)}, num_classes_{num_classes} {
  if (x_.rank() >= 1 && x_.dim(0) != labels_.size()) {
    throw std::invalid_argument{"Dataset: N mismatch between x and labels"};
  }
  rows_.resize(labels_.size());
  std::iota(rows_.begin(), rows_.end(), std::uint32_t{0});
  validate();
}

Dataset::Dataset(Tensor x, std::vector<std::int32_t> labels,
                 std::size_t num_classes, std::vector<std::uint32_t> rows)
    : x_{std::move(x)},
      labels_{std::move(labels)},
      rows_{std::move(rows)},
      num_classes_{num_classes} {
  validate();
}

void Dataset::validate() {
  if (x_.rank() < 1) throw std::invalid_argument{"Dataset: rank-0 features"};
  if (rows_.size() != labels_.size()) {
    throw std::invalid_argument{"Dataset: N mismatch between rows and labels"};
  }
  for (std::uint32_t row : rows_) {
    if (row != kUnrendered && row >= x_.dim(0)) {
      throw std::invalid_argument{"Dataset: row map beyond the features"};
    }
  }
  const auto& s = x_.shape();
  sample_size_ = std::accumulate(s.begin() + 1, s.end(), std::size_t{1},
                                 std::multiplies<>{});
  for (std::int32_t y : labels_) {
    if (y < 0 || static_cast<std::size_t>(y) >= num_classes_) {
      throw std::invalid_argument{"Dataset: label out of range"};
    }
  }
}

std::vector<std::size_t> Dataset::sample_shape() const {
  const auto& s = x_.shape();
  return {s.begin() + 1, s.end()};
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (std::int32_t y : labels_) ++hist[static_cast<std::size_t>(y)];
  return hist;
}

DatasetView::DatasetView(std::shared_ptr<const Dataset> base,
                         std::vector<std::uint32_t> indices)
    : base_{std::move(base)}, indices_{std::move(indices)} {
  if (!base_) throw std::invalid_argument{"DatasetView: null base"};
  for (std::uint32_t i : indices_) {
    if (i >= base_->size()) {
      throw std::out_of_range{"DatasetView: index beyond base dataset"};
    }
    if (!base_->rendered(i)) {
      throw std::out_of_range{"DatasetView: index names an unrendered row"};
    }
  }
}

DatasetView DatasetView::all(std::shared_ptr<const Dataset> base) {
  if (!base) throw std::invalid_argument{"DatasetView::all: null base"};
  std::vector<std::uint32_t> idx(base->size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  return DatasetView{std::move(base), std::move(idx)};
}

std::vector<std::size_t> DatasetView::class_histogram() const {
  std::vector<std::size_t> hist(base_->num_classes(), 0);
  for (std::uint32_t i : indices_) {
    ++hist[static_cast<std::size_t>(base_->label(i))];
  }
  return hist;
}

void DatasetView::gather_batch(std::size_t first, std::size_t count,
                               Tensor& batch_x,
                               std::vector<std::int32_t>& batch_y) const {
  if (first + count > indices_.size()) {
    throw std::out_of_range{"DatasetView::gather_batch"};
  }
  std::vector<std::size_t> shape{count};
  const auto sample_shape = base_->sample_shape();
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  batch_x.resize(shape);  // every element is overwritten below
  batch_y.resize(count);
  const std::size_t stride = base_->sample_size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t src = indices_[first + i];
    std::memcpy(batch_x.data() + i * stride, base_->sample(src),
                stride * sizeof(float));
    batch_y[i] = base_->label(src);
  }
}

DatasetView DatasetView::merged_with(const DatasetView& other) const {
  if (base_ != other.base_) {
    throw std::invalid_argument{"DatasetView::merged_with: different bases"};
  }
  std::vector<std::uint32_t> idx = indices_;
  idx.insert(idx.end(), other.indices_.begin(), other.indices_.end());
  return DatasetView{base_, std::move(idx)};
}

}  // namespace roadrunner::ml
