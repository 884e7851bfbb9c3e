#include "control/rule_based.hpp"

#include "weather/occupancy.hpp"

namespace verihvac::control {

sim::SetpointPair RuleBasedController::act(const env::Observation& obs,
                                           const std::vector<env::Disturbance>& forecast) {
  (void)forecast;
  return weather::is_occupied(obs.occupants) ? occupied_ : unoccupied_;
}

}  // namespace verihvac::control
