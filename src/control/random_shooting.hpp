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
  /// (entry k = disturbances at step t+k). The one-decision, one-repeat
  /// case of solve(), scored across the attached engine.
  std::size_t optimize(const dyn::DynamicsModel& model, const env::Observation& obs,
                       const std::vector<env::Disturbance>& forecast, Rng& rng) const;

  /// One decision of a solve() call: `chosen.size()` back-to-back
  /// optimizer runs (repeats) on one input, each drawing from `rng`.
  struct Decision {
    const dyn::DynamicsModel& model;
    const env::Observation& obs;
    const std::vector<env::Disturbance>& forecast;
    Rng& rng;
    std::span<std::size_t> chosen;  ///< receives each repeat's action index
  };

  /// Where solve() scores its merged batches.
  enum class Scoring {
    kEngine,         ///< sharded across candidates through the attached engine
    kCallingThread,  ///< inline, with the calling thread's RolloutScratch
  };

  /// Random shooting (Eq. 1) over a span of decisions — the one
  /// implementation behind optimize(), action_distribution(), decision-data
  /// labels and serving micro-batches. Checks every decision's inputs
  /// before any draw (a throw leaves every `rng` untouched), draws each
  /// repeat's candidates from its decision's `rng` in order, scores all of
  /// them as one flattened batch (one lock-step rollout_returns_slice per
  /// (decision, sub-range) overlap of a worker slice), takes each repeat's
  /// strict-`>` argmax (first best wins) and, with refine_first_action,
  /// scores every repeat's |A| first-action sweep as a second batch.
  /// Scoring consumes no randomness and per-candidate arithmetic does not
  /// depend on batch composition, so results and final `rng` states equal
  /// one optimize() call at a time for any decision mix and thread count.
  /// A pool worker must pass kCallingThread: the engine path would nest
  /// parallel_for on the pool it already runs on, which deadlocks.
  void solve(std::span<const Decision> decisions, Scoring scoring) const;

  /// Throws std::invalid_argument unless `forecast` holds >= horizon
  /// entries and every feature of `model`'s schema is finite in `obs` and
  /// in those entries (a NaN temperature has comfort penalty 0, so it would
  /// otherwise be decided on energy alone).
  void check_inputs(const dyn::DynamicsModel& model, const env::Observation& obs,
                    const std::vector<env::Disturbance>& forecast) const;

  /// Draws the candidate sequences of one optimizer run into `out`
  /// (which must hold exactly `samples` sequences; each is resized to the
  /// horizon, reusing its capacity), the configured persistent fraction
  /// held constant. Scoring consumes no randomness, so this is the
  /// *entire* stochastic footprint of a run. The one draw routine: solve()
  /// calls it for every repeat, and decision-data generation calls it to
  /// advance an agent's RNG past a point's draws.
  void draw_sequences(Rng& rng, std::span<std::vector<std::size_t>> out) const;

  /// Scores one fixed action sequence, one scalar predict per step, with
  /// all prediction scratch in the caller-provided buffer. The oracle that
  /// tests and benches lock the lock-step batch path (rollout_returns)
  /// against; no production caller scores one sequence at a time.
  double rollout_return(const dyn::DynamicsModel& model, const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast,
                        const std::vector<std::size_t>& action_sequence,
                        dyn::PredictScratch& scratch) const;

  /// Scores every candidate sequence of one input, writing returns[i] for
  /// sequences[i] (VIPER's per-action values).
  ///
  /// Lock-step batch pipeline: candidates advance together one horizon
  /// step at a time, each step's N one-step predictions fused into one
  /// batched forward (dyn::DynamicsModel::predict_batch_into). With an
  /// engine attached, the batch is sharded into contiguous per-worker
  /// slices, each run with the worker's thread-local RolloutScratch.
  /// Per-candidate arithmetic is independent of batch composition, so
  /// results are bit-identical to the scalar rollout_return path for any
  /// thread count and any sharding (tests/control/rollout_engine_test.cpp).
  void rollout_returns(const dyn::DynamicsModel& model, const env::Observation& obs,
                       const std::vector<env::Disturbance>& forecast,
                       const std::vector<std::vector<std::size_t>>& sequences,
                       std::vector<double>& returns) const;

  /// Lock-step batch scoring of the contiguous slice [begin, end) of
  /// `sequences` on the calling thread, all from one input: the per-worker
  /// unit of rollout_returns() and of solve(). Writes returns[s] for s in
  /// [begin, end); `returns` must already have sequences.size() entries.
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
