// VIPER-style iterative policy distillation (extension baseline).
//
// The paper's extraction (§3.2) is *one-shot*: sample inputs from the
// augmented historical distribution, label each with the teacher's modal
// action, fit CART once. Its cited foundation, VIPER (Bastani et al.,
// NeurIPS 2018 [5]), instead distills *iteratively*, DAgger-style:
//
//   D <- {};  pi_0 <- teacher
//   for m = 1..M:
//     roll out pi_{m-1} in the environment, collecting the states the
//       *student* actually visits (fixing the distribution-shift problem
//       of one-shot behavioural cloning);
//     label those states with the teacher; aggregate into D;
//     resample D with probability proportional to the criticality weight
//       l(s) = max_a Q(s,a) - min_a Q(s,a)  (states where a wrong action
//       is costly get more training mass);
//     fit tree pi_m on the resample.
//   return the pi_m with the best evaluation.
//
// Here the teacher is the RS MBRL agent, Q(s,a) is estimated by scoring
// the constant-hold sequence (a, a, ..., a) through the learned dynamics
// model, and evaluation is the teacher-match rate on the freshest batch.
// All |A| constant-hold sequences of a state are scored as one lock-step
// batch (RandomShooting::rollout_returns, the kernel the teacher's labels
// run on), sharded across the teacher's engine. bench/ablation_viper compares
// this against the paper's one-shot extraction at matched label budgets —
// the design question being whether on-policy aggregation is worth H
// environment steps per label when Eq. 5 importance sampling already
// covers the operating distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/mbrl_agent.hpp"
#include "core/decision_data.hpp"
#include "core/dt_policy.hpp"
#include "envlib/env.hpp"

namespace verihvac::core {

struct ViperConfig {
  /// DAgger iterations M.
  std::size_t iterations = 5;
  /// Environment steps rolled out (and labelled) per iteration.
  std::size_t steps_per_iteration = 96;  // one simulated day
  /// Teacher Monte-Carlo repeats per label (modal aggregation, §3.2.1).
  std::size_t mc_repeats = 3;
  /// Criticality-weighted resampling (VIPER) vs uniform aggregation (DAgger).
  bool q_weighted = true;
  /// Resample size per fit; 0 = |D| (sample D with replacement once).
  std::size_t resample_size = 0;
  std::uint64_t seed = 23;
  tree::TreeConfig tree;
};

/// Per-iteration diagnostics.
struct ViperIteration {
  std::size_t aggregated_size = 0;   ///< |D| after this iteration's batch
  double teacher_match_rate = 0.0;   ///< fitted tree vs teacher, fresh batch
  double mean_criticality = 0.0;     ///< mean l(s) over the fresh batch
  std::size_t tree_nodes = 0;
};

struct ViperResult {
  std::shared_ptr<DtPolicy> policy;  ///< best iterate by teacher-match rate
  std::size_t best_iteration = 0;
  std::vector<ViperIteration> iterations;
  DecisionDataset aggregated;        ///< final D (for refits/inspection)
};

/// Estimates the criticality weight l(s) = spread of constant-hold action
/// values at `obs` (exposed for tests; forecast must cover the horizon).
/// Equal, bit for bit, to max - min of the scalar rollout_return over the
/// constant-hold sequences, at any engine pool size.
double action_value_spread(const control::MbrlAgent& teacher, const env::Observation& obs,
                           const std::vector<env::Disturbance>& forecast);

/// Runs VIPER against `teacher` in `env`. The environment is reset at the
/// start of every rollout; the teacher is only *queried* (never advanced).
ViperResult viper_extract(control::MbrlAgent& teacher, env::BuildingEnv& env,
                          const ViperConfig& config);

}  // namespace verihvac::core
