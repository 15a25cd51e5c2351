#include "data/partition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roadrunner::data {

TrainTestSplit train_test_split(std::shared_ptr<const ml::Dataset> base,
                                double test_fraction, util::Rng& rng) {
  if (!base) throw std::invalid_argument{"train_test_split: null dataset"};
  if (test_fraction < 0.0 || test_fraction >= 1.0) {
    throw std::invalid_argument{"train_test_split: fraction outside [0, 1)"};
  }
  const std::size_t n = base->size();
  const auto test_n = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * test_fraction));
  std::vector<std::uint32_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(idx);

  std::vector<std::uint32_t> test_idx(idx.begin(), idx.begin() + test_n);
  std::vector<std::uint32_t> train_idx(idx.begin() + test_n, idx.end());
  return TrainTestSplit{
      ml::DatasetView{base, std::move(train_idx)},
      ml::DatasetView{base, std::move(test_idx)},
  };
}

std::vector<ml::DatasetView> partition_iid(const ml::DatasetView& pool,
                                           std::size_t num_agents,
                                           std::size_t samples_per_agent,
                                           util::Rng& rng) {
  if (num_agents == 0) throw std::invalid_argument{"partition_iid: 0 agents"};
  if (num_agents * samples_per_agent > pool.size()) {
    throw std::invalid_argument{"partition_iid: pool too small"};
  }
  std::vector<std::uint32_t> idx = pool.indices();
  rng.shuffle(idx);
  std::vector<ml::DatasetView> parts;
  parts.reserve(num_agents);
  for (std::size_t a = 0; a < num_agents; ++a) {
    std::vector<std::uint32_t> mine(
        idx.begin() + static_cast<std::ptrdiff_t>(a * samples_per_agent),
        idx.begin() + static_cast<std::ptrdiff_t>((a + 1) * samples_per_agent));
    parts.emplace_back(pool.base_ptr(), std::move(mine));
  }
  return parts;
}

std::vector<ml::DatasetView> partition_class_skew(
    const ml::DatasetView& pool, std::size_t num_agents,
    std::size_t samples_per_agent, std::size_t classes_per_agent,
    util::Rng& rng) {
  if (num_agents == 0) {
    throw std::invalid_argument{"partition_class_skew: 0 agents"};
  }
  const std::size_t num_classes = pool.base().num_classes();
  if (classes_per_agent == 0 || classes_per_agent > num_classes) {
    throw std::invalid_argument{
        "partition_class_skew: classes_per_agent out of range"};
  }

  // Shuffled per-class index pools; agents consume from the front.
  std::vector<std::vector<std::uint32_t>> by_class(num_classes);
  for (std::uint32_t i : pool.indices()) {
    by_class[static_cast<std::size_t>(pool.base().label(i))].push_back(i);
  }
  for (auto& c : by_class) rng.shuffle(c);
  std::vector<std::size_t> cursor(num_classes, 0);

  std::vector<ml::DatasetView> parts;
  parts.reserve(num_agents);
  for (std::size_t a = 0; a < num_agents; ++a) {
    const auto classes =
        rng.sample_without_replacement(num_classes, classes_per_agent);
    std::vector<std::uint32_t> mine;
    mine.reserve(samples_per_agent);
    // Spread the agent's quota over its classes as evenly as possible.
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const std::size_t quota = samples_per_agent / classes.size() +
                                (c < samples_per_agent % classes.size() ? 1 : 0);
      auto& src = by_class[classes[c]];
      std::size_t& cur = cursor[classes[c]];
      if (cur + quota > src.size()) {
        throw std::invalid_argument{
            "partition_class_skew: class pool exhausted; use a larger "
            "dataset or fewer/smaller agents"};
      }
      mine.insert(mine.end(), src.begin() + static_cast<std::ptrdiff_t>(cur),
                  src.begin() + static_cast<std::ptrdiff_t>(cur + quota));
      cur += quota;
    }
    parts.emplace_back(pool.base_ptr(), std::move(mine));
  }
  return parts;
}

std::vector<ml::DatasetView> partition_dirichlet(const ml::DatasetView& pool,
                                                 std::size_t num_agents,
                                                 double alpha,
                                                 util::Rng& rng) {
  if (num_agents == 0) {
    throw std::invalid_argument{"partition_dirichlet: 0 agents"};
  }
  if (alpha <= 0.0) {
    throw std::invalid_argument{"partition_dirichlet: alpha <= 0"};
  }
  const std::size_t num_classes = pool.base().num_classes();

  // p[a][c]: agent a's affinity for class c (Dirichlet draw, unnormalized
  // gamma variates are fine since we sample proportionally per class).
  std::vector<std::vector<double>> affinity(
      num_agents, std::vector<double>(num_classes));
  for (auto& row : affinity) {
    for (double& v : row) v = std::max(rng.gamma(alpha), 1e-12);
  }

  std::vector<std::vector<std::uint32_t>> assignment(num_agents);
  std::vector<double> weights(num_agents);
  // Process samples class by class in shuffled order so ties break randomly.
  std::vector<std::uint32_t> idx = pool.indices();
  rng.shuffle(idx);
  for (std::uint32_t i : idx) {
    const auto c = static_cast<std::size_t>(pool.base().label(i));
    for (std::size_t a = 0; a < num_agents; ++a) {
      weights[a] = affinity[a][c];
    }
    assignment[rng.weighted_index(weights)].push_back(i);
  }

  std::vector<ml::DatasetView> parts;
  parts.reserve(num_agents);
  for (auto& mine : assignment) {
    parts.emplace_back(pool.base_ptr(), std::move(mine));
  }
  return parts;
}

namespace {

double skewness_against(const std::vector<ml::DatasetView>& parts,
                        const std::vector<std::size_t>& pool_hist,
                        std::size_t pool_size) {
  if (parts.empty() || pool_size == 0) return 0.0;
  const std::size_t num_classes = pool_hist.size();
  std::vector<double> pool_p(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    pool_p[c] = static_cast<double>(pool_hist[c]) /
                static_cast<double>(pool_size);
  }

  double total_tv = 0.0;
  std::size_t counted = 0;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    const auto hist = part.class_histogram();
    double tv = 0.0;
    for (std::size_t c = 0; c < num_classes; ++c) {
      const double p = static_cast<double>(hist[c]) /
                       static_cast<double>(part.size());
      tv += std::abs(p - pool_p[c]);
    }
    total_tv += tv / 2.0;
    ++counted;
  }
  return counted == 0 ? 0.0 : total_tv / static_cast<double>(counted);
}

}  // namespace

double partition_skewness(const std::vector<ml::DatasetView>& parts,
                          const ml::DatasetView& pool) {
  if (pool.empty()) return 0.0;
  return skewness_against(parts, pool.class_histogram(), pool.size());
}

double partition_skewness(const std::vector<ml::DatasetView>& parts) {
  if (parts.empty()) return 0.0;
  std::vector<std::size_t> pool_hist(parts.front().base().num_classes(), 0);
  std::size_t pool_size = 0;
  for (const auto& part : parts) {
    const auto hist = part.class_histogram();
    for (std::size_t c = 0; c < hist.size(); ++c) pool_hist[c] += hist[c];
    pool_size += part.size();
  }
  return skewness_against(parts, pool_hist, pool_size);
}

}  // namespace roadrunner::data
