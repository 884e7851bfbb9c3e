// Forward reachability tube — Eq. 3 of the paper.
//
// R+(s0)|H_pi = the states reachable within H steps when the policy pi is
// rolled through the learned dynamics model f_hat. Disturbances follow a
// provided sequence (typically a historical continuation). Used by the
// probabilistic verifier, the equivalence property tests, and as a
// standalone analysis tool (e.g. "where can the zone be in 5 hours?").
#pragma once

#include <vector>

#include "core/dt_policy.hpp"
#include "dynamics/dynamics_model.hpp"

namespace verihvac::core {

struct ReachabilityResult {
  std::vector<double> zone_temps;  ///< s_0 .. s_H (H+1 entries)
  /// Envelope of the tube. NaN-propagating: if any state along the tube is
  /// NaN (diverging model), both bounds are NaN and check_within reports
  /// the tube unsafe — a NaN excursion must never certify.
  double min_temp = 0.0;
  double max_temp = 0.0;
  /// True if every state along the tube stayed within [lo, hi] — filled by
  /// check_within.
  bool within = false;
};

/// Rolls the tube from `x0` for `horizon` steps. `x0` has the width of
/// the policy's feature schema; any other width throws
/// std::invalid_argument.
/// `disturbances[k]` supplies the exogenous inputs at step k+1, i.e. the
/// entries cover steps 1..horizon and entry k drives the k-th transition:
/// the prediction of s_{k+1} sees disturbances[k], so the first transition
/// already uses disturbances[0] (not x0's persisted values) and the final
/// entry disturbances[horizon-1] drives the last transition rather than
/// being dropped. Shorter sequences are extended by repeating the last
/// entry; empty = persistence of x0. The dynamics-model scratch is
/// caller-owned (one per worker thread when core::VerificationEngine fans
/// tubes out in parallel).
ReachabilityResult reach_tube(const DtPolicy& policy, const dyn::DynamicsModel& model,
                              const std::vector<double>& x0,
                              const std::vector<env::Disturbance>& disturbances,
                              std::size_t horizon, dyn::PredictScratch& scratch);

/// Marks result.within for a given comfort band. A tube containing any NaN
/// state (or NaN envelope bounds) is reported unsafe.
void check_within(ReachabilityResult& result, double lo, double hi);

}  // namespace verihvac::core
