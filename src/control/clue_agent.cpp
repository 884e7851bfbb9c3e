#include "control/clue_agent.hpp"

#include "weather/occupancy.hpp"

namespace verihvac::control {

ClueAgent::ClueAgent(const dyn::EnsembleDynamics& ensemble, ClueConfig config,
                     ActionSpace actions, env::RewardConfig reward,
                     sim::SetpointPair fallback_occupied, sim::SetpointPair fallback_unoccupied,
                     std::uint64_t seed)
    : ensemble_(&ensemble),
      config_(config),
      actions_(std::move(actions)),
      rs_(config.rs, actions_, reward),
      reward_(reward),
      fallback_occupied_(fallback_occupied),
      fallback_unoccupied_(fallback_unoccupied),
      rng_(seed),
      seed_(seed) {}

void ClueAgent::reset() {
  rng_ = Rng(seed_);
  decisions_ = 0;
  fallbacks_ = 0;
}

sim::SetpointPair ClueAgent::act(const env::Observation& obs,
                                 const std::vector<env::Disturbance>& forecast) {
  ++decisions_;
  // Plan with the first ensemble member (CLUE plans on the ensemble mean;
  // for a 3-member bootstrap the member-0 plan is statistically equivalent
  // and 3x cheaper — the uncertainty *gate* below is what defines CLUE).
  const std::size_t planned = rs_.optimize(ensemble_->member(0), obs, forecast, rng_);
  const sim::SetpointPair action = actions_.action(planned);

  // Epistemic check: ensemble disagreement on the consequence of the action.
  const dyn::EnsemblePrediction prediction =
      ensemble_->predict(ensemble_->schema().to_vector(obs), action, predict_scratch_);
  if (prediction.stddev > config_.uncertainty_threshold_c) {
    ++fallbacks_;
    return weather::is_occupied(obs.occupants) ? fallback_occupied_ : fallback_unoccupied_;
  }
  return action;
}

double ClueAgent::fallback_rate() const {
  if (decisions_ == 0) return 0.0;
  return static_cast<double>(fallbacks_) / static_cast<double>(decisions_);
}

}  // namespace verihvac::control
