#include "envlib/env.hpp"

#include <cmath>
#include <stdexcept>
#include <tuple>

#include "common/units.hpp"
#include "weather/weather_generator.hpp"
#include "weather/occupancy.hpp"

namespace verihvac::env {

BuildingEnv::BuildingEnv(EnvConfig config)
    : config_(std::move(config)),
      simulator_(sim::five_zone_building(config_.hvac_capacity_scale),
                 config_.substep_seconds) {
  weather::WeatherGenerator generator(config_.climate, config_.weather_seed);
  series_ = generator.generate_days(config_.days);
  num_steps_ = series_.size();
  occupants_ = config_.occupancy.series(num_steps_);
}

Observation BuildingEnv::make_observation(std::size_t step, double zone_temp) const {
  Observation obs;
  obs.zone_temp_c = zone_temp;
  const std::size_t idx = std::min(step, num_steps_ - 1);
  obs.weather = series_.at(idx);
  obs.occupants = occupants_[idx];
  obs.step = step;
  obs.hour_of_day =
      static_cast<double>(step % kStepsPerDay) / static_cast<double>(kStepsPerHour);
  std::tie(obs.hour_sin, obs.hour_cos) = time_of_day_encoding(step);
  obs.occupants_ahead =
      occupants_[std::min(step + kOccupancyForecastSteps, num_steps_ - 1)];
  return obs;
}

Observation BuildingEnv::reset() {
  simulator_.reset(config_.initial_temp_c);
  cursor_ = 0;
  done_ = false;
  current_ = make_observation(0, simulator_.controlled_zone_temp());
  return current_;
}

void BuildingEnv::apply_degradation(const sim::Degradation& degradation) {
  simulator_.degrade(degradation);
}

StepOutcome BuildingEnv::step(const sim::SetpointPair& action) {
  if (done_) throw std::logic_error("BuildingEnv::step called on a finished episode");

  const bool occupied = weather::is_occupied(occupants_[cursor_]);

  // Build the per-zone setpoint command: agent's action in the controlled
  // zone, the default schedule everywhere else.
  const std::size_t zones = simulator_.building().zone_count();
  const sim::SetpointPair default_pair =
      occupied ? config_.default_occupied : config_.default_unoccupied;
  std::vector<sim::SetpointPair> commands(zones, default_pair);
  commands[simulator_.controlled_zone()] = action;

  // All zones share the building occupancy profile scaled by floor area;
  // the controlled zone carries the scheduled count exactly.
  std::vector<double> occupants(zones, 0.0);
  const double controlled_occupants = occupants_[cursor_];
  const double area_controlled =
      simulator_.building().zone(simulator_.controlled_zone()).floor_area_m2;
  for (std::size_t z = 0; z < zones; ++z) {
    const double scale = simulator_.building().zone(z).floor_area_m2 / area_controlled;
    occupants[z] = controlled_occupants * scale;
  }
  occupants[simulator_.controlled_zone()] = controlled_occupants;

  const sim::StepResult sim_result =
      simulator_.step(commands, series_.at(cursor_), occupants);

  StepOutcome outcome;
  outcome.energy_kwh = sim_result.consumed_kwh;
  outcome.occupied = occupied;
  outcome.reward =
      reward(config_.reward, sim_result.controlled_zone_temp_c, action, occupied);
  const double tol = config_.comfort_violation_tolerance_c;
  outcome.comfort_violation =
      sim_result.controlled_zone_temp_c < config_.reward.comfort.lo - tol ||
      sim_result.controlled_zone_temp_c > config_.reward.comfort.hi + tol;

  ++cursor_;
  done_ = cursor_ >= num_steps_;
  outcome.done = done_;
  current_ = make_observation(cursor_, sim_result.controlled_zone_temp_c);
  outcome.observation = current_;
  return outcome;
}

std::vector<Disturbance> BuildingEnv::forecast(std::size_t h) const {
  std::vector<Disturbance> out;
  out.reserve(h);
  for (std::size_t k = 0; k < h; ++k) {
    out.push_back(disturbance_at(cursor_ + k));
  }
  return out;
}

Disturbance BuildingEnv::disturbance_at(std::size_t step) const {
  const std::size_t idx = std::min(step, num_steps_ - 1);
  Disturbance d;
  d.weather = series_.at(idx);
  d.occupants = occupants_[idx];
  std::tie(d.hour_sin, d.hour_cos) = time_of_day_encoding(step);
  d.occupants_ahead = occupants_[std::min(step + kOccupancyForecastSteps, num_steps_ - 1)];
  return d;
}

}  // namespace verihvac::env
