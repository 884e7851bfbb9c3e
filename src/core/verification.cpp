#include "core/verification.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/verification_engine.hpp"
#include "envlib/observation.hpp"
#include "weather/occupancy.hpp"

namespace verihvac::core {
namespace {

/// Does this leaf's box intersect the occupied half-space? Criteria #2/#3
/// guard *occupied-hours* temperature control (§3.1); unoccupied-only
/// leaves (deep setback at night) are exempt by design — correcting them
/// would force night-time heating the comfort criterion never asks for.
bool reaches_occupied(const Box& box, std::size_t occ_dim) {
  return weather::is_occupied(box[occ_dim].hi);
}

/// Function-preserving refinement pass: every occupied-reaching leaf whose
/// zone-temperature interval straddles a comfort boundary is split at that
/// boundary (children inherit the label, so the policy is unchanged).
/// Newly created out-of-comfort leaves are re-examined, so a leaf spanning
/// both boundaries ends up split into three aligned segments.
void refine_straddling(DtPolicy& policy, const env::ComfortRange& comfort) {
  const std::size_t zone_dim = policy.schema().zone_temp_index();
  const std::size_t occ_dim = policy.schema().occupancy_index();
  auto& tree = policy.mutable_tree();
  std::vector<int> pending = tree.leaves();
  while (!pending.empty()) {
    const int leaf = pending.back();
    pending.pop_back();
    const Box box = tree.leaf_box(leaf);
    if (box.empty() || !reaches_occupied(box, occ_dim)) continue;
    const Interval temp = box[zone_dim];
    const bool subject = temp.lo < comfort.lo || temp.hi > comfort.hi;
    if (!subject) continue;
    // A leaf that handles both unoccupied and occupied inputs is split on
    // occupancy first: only its occupied side is subject to #2/#3, and
    // correcting the whole leaf would overwrite the (exempt) night-setback
    // behaviour. CART rarely learns this split on its own, because the
    // historical data contains almost no occupied out-of-comfort states to
    // create a label conflict.
    // Strict: the closed-box representation stores the occupied child of a
    // previous occupancy split as [threshold, hi], and re-splitting that
    // child at the threshold would recurse forever (its "occupied side" is
    // again [threshold, hi]).
    if (box[occ_dim].lo < weather::kOccupiedThreshold) {
      const auto [left, right] = tree.split_leaf(leaf, occ_dim, weather::kOccupiedThreshold);
      (void)left;
      pending.push_back(right);
      continue;
    }
    // Split at the low boundary first; the right child may still straddle
    // the high boundary and is pushed back for re-examination.
    if (temp.lo < comfort.lo && temp.hi > comfort.lo) {
      const auto [left, right] = tree.split_leaf(leaf, zone_dim, comfort.lo);
      (void)left;
      pending.push_back(right);
    } else if (temp.lo < comfort.hi && temp.hi > comfort.hi) {
      const auto [left, right] = tree.split_leaf(leaf, zone_dim, comfort.hi);
      (void)left;
      (void)right;
    }
  }
}

}  // namespace

std::size_t correction_action(const control::ActionSpace& actions,
                              const env::ComfortRange& comfort) {
  const double median = comfort.median();
  return actions.nearest_index(sim::SetpointPair{median, median});
}

FormalReport verify_formal(DtPolicy& policy, const VerificationCriteria& criteria,
                           bool correct) {
  const auto& tree = policy.tree();
  const auto& actions = policy.actions();
  // Algorithm 1 reasons about the zone-temperature dimension *by role* —
  // wherever the schema put it.
  const std::size_t zone_dim = policy.schema().zone_temp_index();
  const std::size_t occ_dim = policy.schema().occupancy_index();
  const double z_lo = criteria.comfort.lo;
  const double z_hi = criteria.comfort.hi;
  const std::size_t fix_action = correction_action(actions, criteria.comfort);

  if (criteria.refine_straddling_leaves) {
    refine_straddling(policy, criteria.comfort);
  }

  FormalReport report;
  for (int leaf : tree.leaves()) {
    ++report.leaves_total;
    const Box box = tree.leaf_box(leaf);
    if (box.empty() || !reaches_occupied(box, occ_dim)) continue;

    const Interval temp = box[zone_dim];
    LeafFinding finding;
    finding.leaf = leaf;

    const auto label = static_cast<std::size_t>(
        tree.node(static_cast<std::size_t>(leaf)).label);
    const sim::SetpointPair action = actions.action(label);

    // Criterion #2: the leaf can be reached with s > z_hi.
    if (temp.hi > z_hi) {
      finding.subject_crit2 = true;
      ++report.leaves_subject_crit2;
      // Worst case (smallest) temperature inside the too-warm region.
      const double inf_warm = std::max(temp.lo, z_hi);
      if (action.cooling_c > inf_warm) {
        finding.violates_crit2 = true;
        ++report.violations_crit2;
      }
    }
    // Criterion #3: the leaf can be reached with s < z_lo.
    if (temp.lo < z_lo) {
      finding.subject_crit3 = true;
      ++report.leaves_subject_crit3;
      // Worst case (largest) temperature inside the too-cold region.
      const double sup_cold = std::min(temp.hi, z_lo);
      if (action.heating_c < sup_cold) {
        finding.violates_crit3 = true;
        ++report.violations_crit3;
      }
    }

    if (finding.violates_crit2 || finding.violates_crit3) {
      if (correct) {
        policy.mutable_tree().set_leaf_label(leaf, static_cast<int>(fix_action));
        finding.corrected = true;
        if (finding.violates_crit2) ++report.corrected_crit2;
        if (finding.violates_crit3) ++report.corrected_crit3;
      }
    }
    if (finding.subject_crit2 || finding.subject_crit3) {
      report.findings.push_back(finding);
    }
  }
  return report;
}

namespace {

/// Applies a historical row's non-state columns onto a policy-input
/// vector, keeping the zone temperature (the schema's single state dim).
void load_disturbances(std::vector<double>& x, const Matrix& historical, std::size_t row,
                       std::size_t zone_dim) {
  const std::size_t idx = std::min(row, historical.rows() - 1);
  for (std::size_t c = 0; c < x.size(); ++c) {
    if (c == zone_dim) continue;
    x[c] = historical(idx, c);
  }
}

}  // namespace

std::pair<std::vector<double>, std::size_t> sample_safe_occupied(
    const AugmentedSampler& sampler, const env::ComfortRange& comfort, Rng& rng) {
  const std::size_t zone_dim = sampler.schema().zone_temp_index();
  const std::size_t occ_dim = sampler.schema().occupancy_index();
  for (int attempt = 0; attempt < 10000; ++attempt) {
    auto [x, row] = sampler.sample(rng);
    if (weather::is_occupied(x[occ_dim]) && comfort.contains(x[zone_dim])) {
      return {std::move(x), row};
    }
  }
  throw std::runtime_error(
      "probabilistic verification: could not sample a safe occupied state");
}

bool continuation_occupied(const Matrix& historical, std::size_t row, std::size_t offset,
                           std::size_t occupancy_dim) {
  const std::size_t idx = std::min(row + offset, historical.rows() - 1);
  return weather::is_occupied(historical(idx, occupancy_dim));
}

ProbabilisticReport verify_probabilistic_one_step(const DtPolicy& policy,
                                                  const dyn::DynamicsModel& model,
                                                  const AugmentedSampler& sampler,
                                                  const VerificationCriteria& criteria,
                                                  std::size_t n_samples, Rng& rng) {
  return VerificationEngine().verify_probabilistic(policy, model, sampler, criteria, n_samples,
                                                   rng.next());
}

ProbabilisticReport verify_probabilistic_h_step(const DtPolicy& policy,
                                                const dyn::DynamicsModel& model,
                                                const AugmentedSampler& sampler,
                                                const VerificationCriteria& criteria,
                                                std::size_t n_samples, Rng& rng) {
  ProbabilisticReport report;
  const Matrix& historical = sampler.historical();
  const std::size_t zone_dim = sampler.schema().zone_temp_index();
  const std::size_t occ_dim = sampler.schema().occupancy_index();

  // Consecutive trajectories that counted no state. Degenerate history (no
  // occupied state with an occupied continuation) would otherwise spin
  // forever; it throws instead, like the one-step estimator.
  constexpr std::size_t kMaxBarrenTrajectories = 10000;
  std::size_t barren = 0;
  dyn::PredictScratch scratch;
  while (report.samples < n_samples) {
    if (barren >= kMaxBarrenTrajectories) {
      throw std::runtime_error(
          "verify_probabilistic_h_step: no trajectory visits a safe occupied state with "
          "occupied continuation");
    }
    const std::size_t counted = report.samples;
    auto [x, row] = sample_safe_occupied(sampler, criteria.comfort, rng);
    // Roll the reachability tube (Eq. 3) under the policy, classifying each
    // visited safe occupied state by the safety of its immediate successor
    // (the counting argument of the §3.3.2 proof).
    for (std::size_t k = 0; k < criteria.horizon && report.samples < n_samples; ++k) {
      const bool occupied = weather::is_occupied(x[occ_dim]);
      const bool safe_now = criteria.comfort.contains(x[zone_dim]);
      const sim::SetpointPair action = policy.decide(x);
      const double next_temp = model.predict(x, action, scratch);
      if (occupied && safe_now && continuation_occupied(historical, row, k + 1, occ_dim)) {
        ++report.samples;
        if (!criteria.comfort.contains(next_temp)) ++report.failures;
      }
      x[zone_dim] = next_temp;
      load_disturbances(x, historical, row + k + 1, zone_dim);
    }
    barren = report.samples == counted ? barren + 1 : 0;
  }
  report.safe_probability =
      1.0 - static_cast<double>(report.failures) / static_cast<double>(report.samples);
  return report;
}

}  // namespace verihvac::core
