// MBRL agent — the MB2C [9] baseline ("MBRL_agent" in Fig. 4).
//
// Learned dynamics model + random-shooting optimizer, re-planned every
// step. Exposes action_distribution(), the Monte-Carlo histogram of the
// optimizer's first-action choices used both for the Fig. 1 stochasticity
// analysis and for the modal-action distillation of §3.2.1.
#pragma once

#include <cstdint>
#include <memory>

#include "control/controller.hpp"
#include "control/random_shooting.hpp"

namespace verihvac::control {

class MbrlAgent final : public Controller {
 public:
  /// The agent borrows (does not own) the trained model.
  MbrlAgent(const dyn::DynamicsModel& model, RandomShootingConfig rs_config,
            ActionSpace actions, env::RewardConfig reward, std::uint64_t seed = 101);

  sim::SetpointPair act(const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast) override;
  std::size_t forecast_horizon() const override { return rs_.config().horizon; }
  std::string name() const override { return "MBRL"; }
  void reset() override;

  /// Runs the stochastic optimizer `repeats` times on the same input and
  /// returns the empirical count per action index (size = action space).
  /// One decision with `repeats` repeats through RandomShooting::solve:
  /// all repeats are scored as one merged batch sharded across the
  /// attached engine, bit-identical to `repeats` decide_once() calls.
  std::vector<std::size_t> action_distribution(const env::Observation& obs,
                                               const std::vector<env::Disturbance>& forecast,
                                               std::size_t repeats);

  /// Single optimizer invocation (one stochastic decision).
  std::size_t decide_once(const env::Observation& obs,
                          const std::vector<env::Disturbance>& forecast);

  const ActionSpace& actions() const { return actions_; }
  const dyn::DynamicsModel& model() const { return *model_; }
  /// The underlying optimizer (the VIPER extension scores per-action
  /// values for its criticality weights through rollout_returns).
  const RandomShooting& optimizer() const { return rs_; }

  /// The optimizer's RNG — the agent's whole stochastic state. Decision-data
  /// generation snapshots it at each point and advances it past the point's
  /// candidate draws, so points can be labelled on any thread while the
  /// stream ends where the one-point-at-a-time loop would leave it.
  Rng& rng() { return rng_; }

  /// Parallelizes the optimizer's rollout scoring across the engine.
  void set_engine(std::shared_ptr<const RolloutEngine> engine) {
    rs_.set_engine(std::move(engine));
  }

 private:
  const dyn::DynamicsModel* model_;
  ActionSpace actions_;
  RandomShooting rs_;
  Rng rng_;
  std::uint64_t seed_;
};

}  // namespace verihvac::control
