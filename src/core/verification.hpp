// Offline verification of decision-tree policies — §3.1 and §3.3.
//
// Criteria (Eq. 4), over comfort range [z_lo, z_hi]:
//   #1 (probabilistic): from safe occupied states, the probability that the
//      policy keeps the zone inside the comfort range exceeds threshold l.
//   #2 (formal): if s > z_hi, the policy's setpoint must be < s.
//   #3 (formal): if s < z_lo, the policy's setpoint must be > s.
//
// Formal verification (Algorithm 1): every leaf has a unique root path;
// intersecting the path's split half-spaces yields the axis-aligned box of
// inputs the leaf handles. If the box's zone-temperature interval reaches
// above z_hi (resp. below z_lo), the leaf is subject to criterion #2
// (resp. #3) and its setpoint decision is checked against the *worst case*
// temperature in that region:
//   #2 requires  cool_sp <= inf{ s in box, s > z_hi }   (so cool_sp < s for
//      every such s; heat_sp <= cool_sp makes the whole pair "below s"),
//   #3 requires  heat_sp >= sup{ s in box, s < z_lo }.
// Failing leaves are *corrected*: their decision is replaced by the action
// nearest to (median, median) of the comfort zone, which satisfies both
// criteria simultaneously (§3.3.1).
//
// Probabilistic verification (criterion #1) uses the augmented historical
// sampler: draw safe occupied inputs, apply the policy, advance one step
// through the learned dynamics model, and measure the fraction that stays
// safe. Its one implementation is VerificationEngine::verify_probabilistic.
// §3.3.2 proves the one-step estimator equals the H-step bootstrap
// estimator; verify_probabilistic_h_step implements the bootstrap variant
// so the equivalence is empirically checkable.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decision_data.hpp"
#include "core/dt_policy.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/reward.hpp"

namespace verihvac::core {

struct VerificationCriteria {
  env::ComfortRange comfort = env::winter_comfort();
  /// Probability threshold l for criterion #1 (building-manager choice).
  double safe_probability_threshold = 0.9;
  /// Reachability-tube depth H for the bootstrap estimator.
  std::size_t horizon = 20;
  /// Before checking #2/#3, split any leaf whose zone-temperature box
  /// straddles a comfort boundary at that boundary (function-preserving),
  /// so the correction edits only the out-of-comfort side of the leaf.
  /// Without this, a single CART leaf covering both in-comfort and
  /// out-of-comfort inputs is corrected *wholesale*, overwriting behaviour
  /// the criteria never objected to (see DESIGN.md §5.6).
  bool refine_straddling_leaves = true;
};

/// Outcome of Algorithm 1 on one leaf.
struct LeafFinding {
  int leaf = -1;
  bool subject_crit2 = false;
  bool subject_crit3 = false;
  bool violates_crit2 = false;
  bool violates_crit3 = false;
  bool corrected = false;
};

struct FormalReport {
  std::size_t leaves_total = 0;
  std::size_t leaves_subject_crit2 = 0;
  std::size_t leaves_subject_crit3 = 0;
  std::size_t violations_crit2 = 0;
  std::size_t violations_crit3 = 0;
  std::size_t corrected_crit2 = 0;
  std::size_t corrected_crit3 = 0;
  std::vector<LeafFinding> findings;  ///< only leaves subject to #2/#3

  bool all_pass() const { return violations_crit2 == 0 && violations_crit3 == 0; }
};

/// Algorithm 1: decision-path verification of criteria #2/#3. When
/// `correct` is set, failing leaves are relabeled in place with the
/// comfort-median action.
FormalReport verify_formal(DtPolicy& policy, const VerificationCriteria& criteria,
                           bool correct);

/// The correction action: nearest valid action to (median, median) of the
/// comfort zone (satisfies both #2 and #3 for any box).
std::size_t correction_action(const control::ActionSpace& actions,
                              const env::ComfortRange& comfort);

struct ProbabilisticReport {
  double safe_probability = 0.0;
  std::size_t samples = 0;
  std::size_t failures = 0;

  bool passes(const VerificationCriteria& criteria) const {
    return safe_probability > criteria.safe_probability_threshold;
  }
};

/// Draws an input that is safe (in-comfort) and occupied — the subject
/// region of criterion #1 — by rejection sampling over the augmented
/// historical distribution; throws after 10000 rejections (degenerate
/// historical data). Returns the noised input and its anchor row. Exposed
/// for the parallel verifier (core::VerificationEngine), which gives every
/// sample its own counter-based RNG stream.
std::pair<std::vector<double>, std::size_t> sample_safe_occupied(
    const AugmentedSampler& sampler, const env::ComfortRange& comfort, Rng& rng);

/// Occupancy of the historical continuation at `row + offset` (clamped to
/// the end of the series). Criterion #1 guards occupied-hours comfort
/// (§3.1): a successor state after everyone has left the zone is not
/// subject to the comfort range, so its excursion is not a failure.
/// `occupancy_dim` is the schema's occupancy column (by role lookup).
bool continuation_occupied(const Matrix& historical, std::size_t row, std::size_t offset,
                           std::size_t occupancy_dim);

/// Criterion #1 via the one-step estimator (§3.3.2): exactly
/// VerificationEngine().verify_probabilistic(..., rng.next()) on the shared
/// pool. Kept only for core::verify_criterion1 and perfbench's extract
/// workload, which checks that the two agree; every other caller uses the
/// engine directly.
ProbabilisticReport verify_probabilistic_one_step(const DtPolicy& policy,
                                                  const dyn::DynamicsModel& model,
                                                  const AugmentedSampler& sampler,
                                                  const VerificationCriteria& criteria,
                                                  std::size_t n_samples, Rng& rng);

/// Criterion #1 via H-step bootstrap rollouts (the expensive method the
/// proof replaces): every visited safe state along each H-step trajectory
/// is classified by the safety of its immediate successor. Throws
/// std::runtime_error after 10000 consecutive trajectories that count no
/// state (no occupied state with an occupied continuation is reachable).
ProbabilisticReport verify_probabilistic_h_step(const DtPolicy& policy,
                                                const dyn::DynamicsModel& model,
                                                const AugmentedSampler& sampler,
                                                const VerificationCriteria& criteria,
                                                std::size_t n_samples, Rng& rng);

}  // namespace verihvac::core
