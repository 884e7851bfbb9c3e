// CLUE baseline [An et al., BuildSys'23] — "CLUE" in Fig. 4.
//
// CLUE gates MBRL decisions on *epistemic uncertainty*: it plans with an
// ensemble of dynamics models; when the ensemble members disagree beyond a
// threshold about the consequence of the chosen action (the state is
// outside the data distribution), it falls back to the safe default
// schedule instead of trusting the model. This reproduces that mechanism
// on our bootstrap ensemble.
#pragma once

#include <cstdint>

#include "control/controller.hpp"
#include "control/random_shooting.hpp"
#include "dynamics/ensemble.hpp"

namespace verihvac::control {

struct ClueConfig {
  RandomShootingConfig rs;
  /// Ensemble stddev (degC on the one-step prediction of the chosen action)
  /// above which the agent falls back to the default schedule.
  double uncertainty_threshold_c = 0.35;
};

class ClueAgent final : public Controller {
 public:
  ClueAgent(const dyn::EnsembleDynamics& ensemble, ClueConfig config, ActionSpace actions,
            env::RewardConfig reward, sim::SetpointPair fallback_occupied,
            sim::SetpointPair fallback_unoccupied, std::uint64_t seed = 211);

  sim::SetpointPair act(const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast) override;
  std::size_t forecast_horizon() const override { return config_.rs.horizon; }
  std::string name() const override { return "CLUE"; }
  void reset() override;

  /// Fraction of decisions (since reset) that hit the uncertainty fallback.
  double fallback_rate() const;

  /// Parallelizes the optimizer's rollout scoring across the engine.
  void set_engine(std::shared_ptr<const RolloutEngine> engine) {
    rs_.set_engine(std::move(engine));
  }

 private:
  const dyn::EnsembleDynamics* ensemble_;
  ClueConfig config_;
  ActionSpace actions_;
  RandomShooting rs_;
  env::RewardConfig reward_;
  sim::SetpointPair fallback_occupied_;
  sim::SetpointPair fallback_unoccupied_;
  Rng rng_;
  std::uint64_t seed_;
  std::size_t decisions_ = 0;
  std::size_t fallbacks_ = 0;
  dyn::PredictScratch predict_scratch_;  ///< the uncertainty check's predict buffers
};

}  // namespace verihvac::control
