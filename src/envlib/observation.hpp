// The raw records the environment produces: one Observation per control
// step and one Disturbance per forecast step.
//
// These are plain field records with no notion of a vector layout. Which
// field sits at which position of a policy input — Table 1's (s, d)
// vector, or a wider preset such as the time-aware one — is decided by
// env::FeatureSchema (feature_schema.hpp) alone, which flattens and
// rebuilds both records by feature role.
#pragma once

#include <cstddef>
#include <utility>

#include "weather/weather_generator.hpp"

namespace verihvac::env {

/// Control steps the occupancy-forecast feature looks ahead (1 hour at
/// the paper's 15-minute control step). Part of the time-aware schema
/// contract: the environment fills Observation::occupants_ahead and
/// Disturbance::occupants_ahead with the schedule this many steps out.
inline constexpr std::size_t kOccupancyForecastSteps = 4;

/// (sin, cos) encoding of the 24h clock at control step `step` (wraps at
/// kStepsPerDay). Single source of truth for the time-of-day features:
/// the environment fills Observation/Disturbance from it, and scenario
/// generators that synthesize forecasts use it too, so the encoding
/// cannot drift between producers.
std::pair<double, double> time_of_day_encoding(std::size_t step);

/// Full observation returned by the environment.
struct Observation {
  double zone_temp_c = 20.0;
  weather::WeatherRecord weather;
  double occupants = 0.0;
  std::size_t step = 0;      ///< control-step index within the episode
  double hour_of_day = 0.0;  ///< derived, for logging/plots
  /// Stored time-of-day encoding, filled by the environment. Kept as
  /// materialized fields (not recomputed from hour_of_day at flatten
  /// time) so schema round-trips are bit-exact.
  double hour_sin = 0.0;
  double hour_cos = 1.0;
  /// Scheduled occupant count kOccupancyForecastSteps ahead.
  double occupants_ahead = 0.0;
};

/// Disturbance-only record (what forecasts carry). Carries the temporal
/// features too: during a rollout the clock and the occupancy forecast
/// advance exactly like the weather does. Telemetry records store these
/// eight doubles as they are, in this order (adapt/telemetry.hpp): a
/// field change is a trace-format change.
struct Disturbance {
  weather::WeatherRecord weather;
  double occupants = 0.0;
  double hour_sin = 0.0;
  double hour_cos = 1.0;
  double occupants_ahead = 0.0;
};

}  // namespace verihvac::env
