// Random Shooting (RS) stochastic optimizer — Eq. 1 of the paper.
//
// Samples N candidate action sequences of length H uniformly from the
// discrete action space, rolls each out through the learned dynamics model
// against the known disturbance forecast, scores them with the discounted
// Eq. 2 reward, and returns the first action of the best sequence. This is
// the optimizer MB2C [9] validated with sample_number=1000, horizon=20 —
// the paper-scale defaults here, scaled down by benches via config.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "control/action_space.hpp"
#include "control/rollout_engine.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/observation.hpp"
#include "envlib/reward.hpp"

namespace verihvac::control {

/// Per-worker persistent scratch for the lock-step batch scoring path
/// (same caller-owned convention as dyn::PredictScratch / BatchScratch).
/// One instance lives in each pool worker's thread-local storage, so the
/// candidate-state matrix and all activation buffers are allocated once
/// per thread and reused across every decision of the process lifetime.
struct RolloutScratch {
  /// Live candidate inputs, one 8-dim model-input row per candidate.
  Matrix states;
  /// Batched one-step predictions for the current horizon step.
  std::vector<double> next_temps;
  /// Per-candidate running discount factor.
  std::vector<double> discounts;
  /// Per-candidate action applied at the current step.
  std::vector<sim::SetpointPair> actions;
  /// Fused normalize -> network -> denormalize predict scratch.
  dyn::BatchScratch batch;
};

/// The calling thread's persistent RolloutScratch (static thread_local):
/// pool workers live for the process, so each worker's candidate matrix
/// and activation buffers warm up once and serve every subsequent batch.
/// Shared with the serving scheduler so a worker that runs both the
/// optimizer path and cross-session serving keeps ONE scratch, not two.
RolloutScratch& worker_rollout_scratch();

struct RandomShootingConfig {
  std::size_t samples = 1000;  ///< candidate sequences per decision
  std::size_t horizon = 20;    ///< planning steps (20 x 15 min = 5 h)
  double gamma = 0.99;         ///< discount factor
  /// Fraction of candidates drawn as *constant* (persistence) sequences —
  /// a standard shooting variance-reduction. Argmax over the summed return
  /// of fully random sequences exerts almost no selection pressure on the
  /// one action actually executed (the first), which is exactly the Fig. 1
  /// stochasticity; constant candidates restore that pressure wherever a
  /// held setpoint is near-optimal (e.g. unoccupied setback) while leaving
  /// the comfort-dominated occupied hours as stochastic as before.
  double persistent_fraction = 0.25;
  /// After the shooting pass, re-optimize the *executed* action: hold the
  /// best sequence's tail fixed and enumerate every first action, taking
  /// the argmax. Costs one extra |A|-rollout sweep but removes the label
  /// noise of argmax-over-sums entirely (many near-equivalent first
  /// actions split the Monte-Carlo mass, so the paper's modal aggregation
  /// can land on a minority behaviour). Off by default — the plain RS
  /// baseline of Fig. 1 must keep its stochasticity; the decision-data
  /// generator (§3.2.1) turns it on for sharp supervision.
  bool refine_first_action = false;
};

class RandomShooting {
 public:
  RandomShooting(RandomShootingConfig config, const ActionSpace& actions,
                 env::RewardConfig reward);

  /// One optimization: returns the index (into the action space) of the
  /// chosen first action. `forecast` must provide >= horizon entries
  /// (entry k = disturbances at step t+k). The one-repeat case of
  /// optimize_repeats(), scored across the attached engine.
  std::size_t optimize(const dyn::DynamicsModel& model, const env::Observation& obs,
                       const std::vector<env::Disturbance>& forecast, Rng& rng) const;

  /// Where optimize_repeats() scores its merged batches.
  enum class Scoring {
    kEngine,         ///< sharded across candidates through the attached engine
    kCallingThread,  ///< inline, with the calling thread's RolloutScratch
  };

  /// `chosen.size()` back-to-back optimize() calls on one input, labelled
  /// as two merged batches: every call's candidates are scored at once,
  /// then (with refine_first_action) every call's |A| refine candidates.
  /// Call r draws its candidates from `rng` right after call r-1, so
  /// chosen[r] and the state `rng` is left in are bit-identical to the
  /// one-at-a-time loop: scoring consumes no randomness, per-candidate
  /// arithmetic does not depend on batch composition, and each call keeps
  /// optimize()'s strict-`>` argmax (first best wins). A caller that is
  /// itself a pool worker must pass kCallingThread: the engine path would
  /// nest parallel_for on the pool it already runs on, which deadlocks.
  void optimize_repeats(const dyn::DynamicsModel& model, const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast, Rng& rng,
                        std::span<std::size_t> chosen, Scoring scoring) const;

  /// Draws the candidate sequences of one optimize() call into `out`
  /// (which must hold exactly `samples` sequences; each is resized to the
  /// horizon, reusing its capacity), the configured persistent fraction
  /// held constant. Scoring consumes no randomness, so this is the
  /// *entire* stochastic footprint of a decision. The one draw routine:
  /// optimize(), the serving scheduler (which replays a decision's exact
  /// candidate set from its per-request RNG stream) and decision-data
  /// generation (which advances an agent past a point's draws) all call
  /// it, keeping the three bit-identical.
  void draw_sequences(Rng& rng, std::span<std::vector<std::size_t>> out) const;

  /// Scores one fixed action sequence, one scalar predict per step. With
  /// the scratch overload below, the oracle that tests and benches lock
  /// the lock-step batch path (rollout_returns) against; no production
  /// caller scores one sequence at a time.
  double rollout_return(const dyn::DynamicsModel& model, const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast,
                        const std::vector<std::size_t>& action_sequence) const;

  /// The same oracle with all prediction scratch in the caller-provided
  /// buffer (thread-safe).
  double rollout_return(const dyn::DynamicsModel& model, const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast,
                        const std::vector<std::size_t>& action_sequence,
                        dyn::PredictScratch& scratch) const;

  /// Scores every candidate sequence, writing returns[i] for sequences[i].
  ///
  /// Lock-step batch pipeline: candidates advance together one horizon
  /// step at a time, with each step's N one-step predictions fused into a
  /// single batched forward (dyn::DynamicsModel::predict_batch_into)
  /// instead of N scalar predicts. With an engine attached, the batch is
  /// sharded into contiguous per-worker slices over its thread pool, each
  /// worker running the lock-step pipeline on its slice with persistent
  /// thread-local RolloutScratch. (Decision-data generation shards the
  /// other way: whole decision points per worker, each scored inline
  /// through rollout_returns_slice.) Per-candidate arithmetic is
  /// independent of batch composition, so results are bit-identical to the
  /// scalar rollout_return path for any thread count and any sharding
  /// (locked in by tests/control/rollout_engine_test.cpp).
  void rollout_returns(const dyn::DynamicsModel& model, const env::Observation& obs,
                       const std::vector<env::Disturbance>& forecast,
                       const std::vector<std::vector<std::size_t>>& sequences,
                       std::vector<double>& returns) const;

  /// Lock-step batch scoring of the contiguous slice [begin, end) of
  /// `sequences` on the calling thread: the per-worker unit of
  /// rollout_returns, and the whole scoring step of an inline
  /// optimize_repeats(). Writes returns[s] for s in [begin, end); `returns`
  /// must already have sequences.size() entries.
  void rollout_returns_slice(const dyn::DynamicsModel& model, const env::Observation& obs,
                             const std::vector<env::Disturbance>& forecast,
                             const std::vector<std::vector<std::size_t>>& sequences,
                             std::size_t begin, std::size_t end, std::vector<double>& returns,
                             RolloutScratch& scratch) const;

  /// Attaches (or detaches, with nullptr) the parallel rollout engine.
  void set_engine(std::shared_ptr<const RolloutEngine> engine) { engine_ = std::move(engine); }
  const RolloutEngine* engine() const { return engine_.get(); }

  const RandomShootingConfig& config() const { return config_; }

 private:
  RandomShootingConfig config_;
  ActionSpace actions_;  ///< by value: a pointer would dangle on temporaries
  env::RewardConfig reward_;
  std::shared_ptr<const RolloutEngine> engine_;  ///< null = serial scoring
};

}  // namespace verihvac::control
