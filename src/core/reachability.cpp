#include "core/reachability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "envlib/observation.hpp"

namespace verihvac::core {

ReachabilityResult reach_tube(const DtPolicy& policy, const dyn::DynamicsModel& model,
                              const std::vector<double>& x0,
                              const std::vector<env::Disturbance>& disturbances,
                              std::size_t horizon, dyn::PredictScratch& scratch) {
  const env::FeatureSchema& schema = policy.schema();
  if (x0.size() != schema.dims()) {
    throw std::invalid_argument("reach_tube: x0 has " + std::to_string(x0.size()) +
                                " dims, policy schema '" + schema.name() +
                                "' expects " + std::to_string(schema.dims()));
  }
  const std::size_t zone_dim = schema.zone_temp_index();
  ReachabilityResult result;
  result.zone_temps.reserve(horizon + 1);
  std::vector<double> x = x0;
  result.zone_temps.push_back(x[zone_dim]);

  for (std::size_t k = 0; k < horizon; ++k) {
    // disturbances[k] are the exogenous inputs at step k+1: they drive the
    // k-th transition, so they are applied *before* predicting s_{k+1}.
    if (!disturbances.empty()) {
      const env::Disturbance& d = disturbances[std::min(k, disturbances.size() - 1)];
      schema.apply_disturbance(d, x.data());
    }
    const sim::SetpointPair action = policy.decide(x);
    const double next_temp = model.predict(x, action, scratch);
    x[zone_dim] = next_temp;
    result.zone_temps.push_back(next_temp);
  }

  // NaN-propagating envelope: std::min_element/max_element order NaN
  // unpredictably (every comparison is false), which previously let a
  // diverged tube report finite bounds — and check_within then certified
  // it. Any NaN state poisons both bounds instead.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double t : result.zone_temps) {
    if (std::isnan(t)) {
      lo = hi = std::numeric_limits<double>::quiet_NaN();
      break;
    }
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  result.min_temp = lo;
  result.max_temp = hi;
  return result;
}

void check_within(ReachabilityResult& result, double lo, double hi) {
  bool has_nan = std::isnan(result.min_temp) || std::isnan(result.max_temp);
  for (double t : result.zone_temps) has_nan = has_nan || std::isnan(t);
  result.within = !has_nan && result.min_temp >= lo && result.max_temp <= hi;
}

}  // namespace verihvac::core
