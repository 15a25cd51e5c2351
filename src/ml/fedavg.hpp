// Federated Averaging (McMahan et al. 2017, the paper's §3):
//     w = sum_i w_i * d_i / (sum_j d_j)
// where d_i is the data amount behind contribution i.
//
// FA is mathematically associative under weight bookkeeping — the property
// the OPP strategy relies on for intermediate aggregation at reporters
// (paper §5.2, Fig. 3 step 7). `WeightedModel` therefore carries its total
// data amount so partial aggregates can themselves be aggregated; the
// associativity is verified by property tests.
#pragma once

#include <vector>

#include "ml/net.hpp"
#include "ml/serialize.hpp"

namespace roadrunner::ml {

struct WeightedModel {
  Weights weights;
  double data_amount = 0.0;  ///< d_i; must be > 0 to contribute

  template <class Ar>
  void fields(Ar& ar) {
    ar(weights, data_amount);
  }
};

/// Flat federated average. All contributions must have identical tensor
/// shapes and positive total data amount (throws std::invalid_argument
/// otherwise). The result's data_amount is the sum of the inputs', so the
/// output can be fed into another fed_avg call (intermediate aggregation).
WeightedModel fed_avg(const std::vector<WeightedModel>& contributions);

}  // namespace roadrunner::ml
