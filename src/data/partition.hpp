// Data Preprocessing module (paper §4): splits a dataset into per-agent
// subsets "according to a predefined distribution" plus a server-side test
// set. All partitioners return index-based DatasetViews over a shared base,
// so no sample data is copied.
//
// Three distribution families cover the paper's "data distribution in the
// fleet" dimension (§1, [9]):
//  * IID          — uniform random split;
//  * class skew   — each agent holds a fixed number of samples drawn from a
//                   small set of classes (the paper's Fig. 4 setting: "a
//                   highly skewed distribution of classes in which every
//                   vehicle holds 80 samples");
//  * Dirichlet(α) — per-agent class proportions from a Dirichlet prior, the
//                   standard non-IID benchmark knob (α→∞ approaches IID).
#pragma once

#include <memory>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace roadrunner::data {

/// Splits [0, dataset size) into a training pool and a held-out test set of
/// `test_fraction` of the samples (rounded down), selected uniformly.
struct TrainTestSplit {
  ml::DatasetView train;
  ml::DatasetView test;
};
TrainTestSplit train_test_split(std::shared_ptr<const ml::Dataset> base,
                                double test_fraction, util::Rng& rng);

/// IID: every agent draws `samples_per_agent` indices from `pool` uniformly
/// without replacement (across agents too — agents hold disjoint data).
/// Throws if the pool is too small.
std::vector<ml::DatasetView> partition_iid(const ml::DatasetView& pool,
                                           std::size_t num_agents,
                                           std::size_t samples_per_agent,
                                           util::Rng& rng);

/// Class skew: each agent holds `samples_per_agent` samples drawn from
/// `classes_per_agent` randomly chosen classes (paper Fig. 4 uses
/// classes_per_agent = 1..2 to "emulate highly personalized data").
/// Sampling is with replacement across agents within a class pool if the
/// class runs dry is NOT allowed — throws instead, so experiments never
/// silently duplicate data.
std::vector<ml::DatasetView> partition_class_skew(
    const ml::DatasetView& pool, std::size_t num_agents,
    std::size_t samples_per_agent, std::size_t classes_per_agent,
    util::Rng& rng);

/// Dirichlet: draws per-agent class mixtures p_a ~ Dir(alpha * 1) and
/// assigns each pool sample to an agent proportionally to the agents'
/// demand for its class. Every pool sample is assigned to exactly one agent.
std::vector<ml::DatasetView> partition_dirichlet(const ml::DatasetView& pool,
                                                 std::size_t num_agents,
                                                 double alpha,
                                                 util::Rng& rng);

/// Degree of non-IID-ness of a partition: mean total-variation distance
/// between each agent's class histogram and the pool's. 0 = perfectly IID
/// proportions, →1 = fully disjoint classes.
double partition_skewness(const std::vector<ml::DatasetView>& parts,
                          const ml::DatasetView& pool);

/// The same against the union of the parts: what a scenario's vehicles
/// hold between them (recorded by the campaign engine per job).
double partition_skewness(const std::vector<ml::DatasetView>& parts);

}  // namespace roadrunner::data
