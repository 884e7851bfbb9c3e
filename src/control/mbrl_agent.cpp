#include "control/mbrl_agent.hpp"

namespace verihvac::control {

MbrlAgent::MbrlAgent(const dyn::DynamicsModel& model, RandomShootingConfig rs_config,
                     ActionSpace actions, env::RewardConfig reward, std::uint64_t seed)
    : model_(&model),
      actions_(std::move(actions)),
      rs_(rs_config, actions_, reward),
      rng_(seed),
      seed_(seed) {}

void MbrlAgent::reset() { rng_ = Rng(seed_); }

sim::SetpointPair MbrlAgent::act(const env::Observation& obs,
                                 const std::vector<env::Disturbance>& forecast) {
  return actions_.action(decide_once(obs, forecast));
}

std::size_t MbrlAgent::decide_once(const env::Observation& obs,
                                   const std::vector<env::Disturbance>& forecast) {
  return rs_.optimize(*model_, obs, forecast, rng_);
}

std::vector<std::size_t> MbrlAgent::action_distribution(
    const env::Observation& obs, const std::vector<env::Disturbance>& forecast,
    std::size_t repeats) {
  std::vector<std::size_t> chosen(repeats);
  const RandomShooting::Decision decision{*model_, obs, forecast, rng_, chosen};
  rs_.solve(std::span(&decision, 1), RandomShooting::Scoring::kEngine);
  std::vector<std::size_t> counts(actions_.size(), 0);
  for (const std::size_t a : chosen) ++counts[a];
  return counts;
}

}  // namespace verihvac::control
