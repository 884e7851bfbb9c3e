// The baseline (Table 1) policy-input layout, for tests: columns are
// looked up by feature role in env::baseline_schema(), and observations
// are flattened through it, so no test spells a raw position.
#pragma once

#include <cstddef>
#include <vector>

#include "envlib/feature_schema.hpp"

namespace verihvac::env::testing {

/// Column of `role` in the baseline layout.
inline std::size_t dim(FeatureRole role) { return baseline_schema().index_of(role); }

/// Width of the baseline layout.
inline std::size_t baseline_dims() { return baseline_schema().dims(); }

/// `obs` flattened to the baseline layout.
inline std::vector<double> flatten(const Observation& obs) {
  return baseline_schema().to_vector(obs);
}

}  // namespace verihvac::env::testing
