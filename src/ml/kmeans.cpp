#include "ml/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

namespace roadrunner::ml {

namespace {

double sq_dist(const float* a, const float* b, std::size_t d) {
  double acc = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double diff = static_cast<double>(a[i]) - b[i];
    acc += diff * diff;
  }
  return acc;
}

std::size_t nearest_centroid(const KMeansModel& model, const float* x,
                             std::size_t d, double* out_dist = nullptr) {
  const std::size_t k = model.k();
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double dist = sq_dist(x, model.centroids.data() + c * d, d);
    if (dist < best_d) {
      best_d = dist;
      best = c;
    }
  }
  if (out_dist != nullptr) *out_dist = best_d;
  return best;
}

}  // namespace

KMeansModel kmeans_init(const DatasetView& data, std::size_t k,
                        util::Rng& rng) {
  if (k == 0) throw std::invalid_argument{"kmeans_init: k == 0"};
  if (data.size() < k) {
    throw std::invalid_argument{"kmeans_init: fewer samples than clusters"};
  }
  const std::size_t d = data.base().sample_size();
  KMeansModel model;
  model.centroids = Tensor{{k, d}};

  // k-means++: first centre uniform, subsequent ones proportional to the
  // squared distance to the nearest chosen centre.
  std::vector<double> dist2(data.size(),
                            std::numeric_limits<double>::infinity());
  const std::size_t first = rng.next_below(data.size());
  std::copy_n(data.sample(first), d, model.centroids.data());

  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double dd =
          sq_dist(data.sample(i), model.centroids.data() + (c - 1) * d, d);
      dist2[i] = std::min(dist2[i], dd);
      total += dist2[i];
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double point = rng.uniform() * total;
      for (std::size_t i = 0; i < data.size(); ++i) {
        point -= dist2[i];
        if (point <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.next_below(data.size());  // degenerate: all points equal
    }
    std::copy_n(data.sample(chosen), d, model.centroids.data() + c * d);
  }
  return model;
}

KMeansReport kmeans_fit(KMeansModel& model, const DatasetView& data,
                        std::size_t max_iterations) {
  if (model.k() == 0) throw std::invalid_argument{"kmeans_fit: empty model"};
  if (data.empty()) throw std::invalid_argument{"kmeans_fit: empty data"};
  const std::size_t d = data.base().sample_size();
  if (model.centroids.dim(1) != d) {
    throw std::invalid_argument{"kmeans_fit: dimension mismatch"};
  }
  const std::size_t k = model.k();

  KMeansReport report;
  std::vector<std::int32_t> assign(data.size(), -1);
  std::vector<double> sums(k * d);
  std::vector<std::size_t> counts(k);

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++report.iterations;
    bool changed = false;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    double inertia = 0.0;

    for (std::size_t i = 0; i < data.size(); ++i) {
      double dist = 0.0;
      const auto c =
          static_cast<std::int32_t>(nearest_centroid(model, data.sample(i),
                                                     d, &dist));
      inertia += dist;
      if (c != assign[i]) {
        assign[i] = c;
        changed = true;
      }
      const float* x = data.sample(i);
      double* sum = sums.data() + static_cast<std::size_t>(c) * d;
      for (std::size_t j = 0; j < d; ++j) sum[j] += x[j];
      ++counts[static_cast<std::size_t>(c)];
    }
    report.inertia = inertia;

    if (!changed) {
      report.converged = true;
      break;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep previous centroid
      float* centre = model.centroids.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) {
        centre[j] = static_cast<float>(sums[c * d + j] /
                                       static_cast<double>(counts[c]));
      }
    }
  }
  return report;
}

std::vector<std::int32_t> kmeans_assign(const KMeansModel& model,
                                        const DatasetView& data) {
  const std::size_t d = data.base().sample_size();
  std::vector<std::int32_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = static_cast<std::int32_t>(
        nearest_centroid(model, data.sample(i), d));
  }
  return out;
}

double kmeans_inertia(const KMeansModel& model, const DatasetView& data) {
  const std::size_t d = data.base().sample_size();
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    double dist = 0.0;
    nearest_centroid(model, data.sample(i), d, &dist);
    total += dist;
  }
  return total;
}

double kmeans_purity(const KMeansModel& model, const DatasetView& data) {
  if (data.empty()) return 0.0;
  const auto assign = kmeans_assign(model, data);
  // cluster -> label -> count
  std::map<std::int32_t, std::map<std::int32_t, std::size_t>> table;
  for (std::size_t i = 0; i < data.size(); ++i) {
    ++table[assign[i]][data.label(i)];
  }
  std::size_t majority_total = 0;
  for (const auto& [cluster, labels] : table) {
    std::size_t best = 0;
    for (const auto& [label, count] : labels) best = std::max(best, count);
    majority_total += best;
  }
  return static_cast<double>(majority_total) /
         static_cast<double>(data.size());
}

}  // namespace roadrunner::ml
