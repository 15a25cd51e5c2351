// Lloyd's k-means — the framework's unsupervised-learning representative.
// The paper's preliminaries (§3) require ML support "from supervised ...
// to semi-supervised or unsupervised ones (... clustering data)" and a
// clustering-quality measure as the accuracy analogue; we provide inertia
// (within-cluster sum of squares) and purity against optional labels.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {

struct KMeansModel {
  Tensor centroids;  ///< [k, d]
  [[nodiscard]] std::size_t k() const {
    return centroids.empty() ? 0 : centroids.dim(0);
  }
};

struct KMeansReport {
  double inertia = 0.0;       ///< sum of squared distances to assigned centre
  std::size_t iterations = 0;
  bool converged = false;
};

/// k-means++ initialization over the view's samples (flattened features).
KMeansModel kmeans_init(const DatasetView& data, std::size_t k,
                        util::Rng& rng);

/// Runs Lloyd iterations starting from (and updating) `model`. Empty
/// clusters keep their previous centroid. Stops when assignments are stable
/// or max_iterations is hit.
KMeansReport kmeans_fit(KMeansModel& model, const DatasetView& data,
                        std::size_t max_iterations = 50);

/// Index of the nearest centroid per sample.
std::vector<std::int32_t> kmeans_assign(const KMeansModel& model,
                                        const DatasetView& data);

/// Within-cluster sum of squares of `data` under `model`.
double kmeans_inertia(const KMeansModel& model, const DatasetView& data);

/// Cluster purity against the dataset labels: fraction of samples whose
/// cluster's majority label matches their own. In [0, 1], higher is better.
double kmeans_purity(const KMeansModel& model, const DatasetView& data);

}  // namespace roadrunner::ml
