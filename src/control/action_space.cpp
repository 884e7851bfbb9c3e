#include "control/action_space.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace verihvac::control {

ActionSpace::ActionSpace(ActionSpaceConfig config) : config_(config) {
  if (config_.heat_min > config_.heat_max || config_.cool_min > config_.cool_max) {
    throw std::invalid_argument("ActionSpace: inverted bounds");
  }
  // 64-bit counters: an int loop would overflow past a bound of INT_MAX.
  for (std::int64_t h = config_.heat_min; h <= config_.heat_max; ++h) {
    for (std::int64_t c = config_.cool_min; c <= config_.cool_max; ++c) {
      if (config_.enforce_heat_le_cool && h > c) continue;
      actions_.push_back(sim::SetpointPair{static_cast<double>(h), static_cast<double>(c)});
    }
  }
  if (actions_.empty()) throw std::invalid_argument("ActionSpace: empty");
}

std::size_t ActionSpace::nearest_index(const sim::SetpointPair& pair) const {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    const double dist = std::abs(actions_[i].heating_c - pair.heating_c) +
                        std::abs(actions_[i].cooling_c - pair.cooling_c);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

bool ActionSpace::contains(const sim::SetpointPair& pair) const {
  const std::size_t idx = nearest_index(pair);
  return actions_[idx].heating_c == pair.heating_c &&
         actions_[idx].cooling_c == pair.cooling_c;
}

std::string ActionSpace::label(std::size_t index) const {
  const auto& a = actions_.at(index);
  std::ostringstream os;
  os << "h=" << a.heating_c << "/c=" << a.cooling_c;
  return os.str();
}

}  // namespace verihvac::control
