// Gym-style building environment (Sinergym substitute).
//
// Mediates between a control agent and the thermal plant: reset() starts a
// January episode driven by a (city, seed)-determined weather series and
// the office occupancy schedule; step(action) applies the agent's setpoint
// pair to the controlled zone (default schedule elsewhere), advances one
// 15-minute step and returns observation, reward and metering.
//
// Controllers that plan (random shooting) additionally read the disturbance
// forecast — the paper, like MB2C/CLUE, assumes disturbances over the
// planning horizon are known (weather forecast + occupancy schedule).
#pragma once

#include <cstdint>
#include <vector>

#include "envlib/observation.hpp"
#include "envlib/reward.hpp"
#include "thermosim/building_presets.hpp"
#include "thermosim/simulation.hpp"
#include "weather/climate.hpp"
#include "weather/occupancy.hpp"

namespace verihvac::env {

struct EnvConfig {
  weather::ClimateProfile climate = weather::pittsburgh();
  std::uint64_t weather_seed = 2021;
  int days = 31;  ///< January
  RewardConfig reward;
  weather::OccupancySchedule occupancy = weather::office_schedule();
  /// Default schedule applied to the *uncontrolled* zones (and used by the
  /// rule-based baseline for the controlled zone as well).
  sim::SetpointPair default_occupied{20.0, 23.5};
  sim::SetpointPair default_unoccupied{15.0, 30.0};
  double initial_temp_c = 20.0;
  double substep_seconds = 60.0;
  /// Multiplies every HVAC unit's capacity (EnergyPlus-autosizing
  /// analogue). 1.0 = the January-sized paper plant; cooling-season runs
  /// (e.g. the TucsonJuly profile) need ~2x to meet the design day.
  double hvac_capacity_scale = 1.0;
  /// Dead-band applied to the *violation flag* only (never the reward):
  /// a zone counts as violating when it leaves comfort by more than this.
  /// Our ideal-loads thermostat settles exactly ON its setpoint, so a
  /// controller that holds the comfort edge (the building default heating
  /// to 20.0 = z_lo) grazes the boundary by load*dt/C every other substep;
  /// EnergyPlus's coil/throttling dynamics rest a hair inside instead.
  /// Without the tolerance that substrate difference mislabels the
  /// default controller as ~65% violating (the paper reports ~9%).
  double comfort_violation_tolerance_c = 0.05;
};

/// Everything the environment returns from one step.
struct StepOutcome {
  Observation observation;  ///< observation *after* the step (s_{t+1}, d_{t+1})
  double reward = 0.0;
  double energy_kwh = 0.0;  ///< metered building HVAC energy this step
  bool occupied = false;    ///< occupancy during the step just simulated
  bool comfort_violation = false;  ///< new zone temp outside comfort (any time)
  bool done = false;
};

class BuildingEnv {
 public:
  explicit BuildingEnv(EnvConfig config);

  const EnvConfig& config() const { return config_; }
  std::size_t horizon_steps() const { return num_steps_; }

  /// Starts a new episode; returns the initial observation (s_0, d_0).
  Observation reset();

  /// Applies the agent's setpoints to the controlled zone and advances one
  /// 15-minute step. Must not be called after done.
  StepOutcome step(const sim::SetpointPair& action);

  /// Injects in-service building drift (equipment wear, envelope leakage)
  /// into the running plant mid-episode. Thermal state, weather and
  /// occupancy are untouched: from the controller's point of view the
  /// *dynamics* silently changed — the drift-scenario axis the adaptation
  /// loop must detect and recover from.
  void apply_degradation(const sim::Degradation& degradation);

  /// Current observation (valid between reset/step calls).
  const Observation& observation() const { return current_; }

  /// Perfect disturbance forecast for steps t+1 .. t+h (clamped at the
  /// episode end by repeating the final record).
  std::vector<Disturbance> forecast(std::size_t h) const;

  /// Disturbance at an absolute step index (exposed for data collection).
  Disturbance disturbance_at(std::size_t step) const;

  /// The underlying weather series (for plots and historical datasets).
  const weather::WeatherSeries& weather_series() const { return series_; }

 private:
  Observation make_observation(std::size_t step, double zone_temp) const;

  EnvConfig config_;
  sim::BuildingSimulator simulator_;
  weather::WeatherSeries series_;
  std::vector<double> occupants_;  // controlled-zone occupancy per step
  std::size_t num_steps_ = 0;
  std::size_t cursor_ = 0;  // index of the *next* step to simulate
  Observation current_;
  bool done_ = true;
};

}  // namespace verihvac::env
