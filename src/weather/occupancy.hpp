// Occupancy schedules.
//
// The fifth disturbance variable of Table 1 is "Zone People Occupant
// Count". The paper's 5-zone office building follows the standard Sinergym
// office schedule: occupied on weekdays during business hours, empty
// otherwise. The schedule matters twice: it enters the dynamics-model input
// and it switches the reward weight w_e (energy-dominant when unoccupied,
// comfort-dominant when occupied).
#pragma once

#include <cstddef>
#include <vector>

namespace verihvac::weather {

/// The one occupied/unoccupied rule, shared by the plant, reward,
/// controllers, verification criteria and interval certificates.
inline constexpr double kOccupiedThreshold = 0.5;
inline constexpr bool is_occupied(double occupants) { return occupants > kOccupiedThreshold; }

struct OccupancySchedule {
  /// Peak occupant count for the controlled zone.
  double peak_occupants = 11.0;
  /// Occupied window on weekdays [hours, 24h clock).
  double start_hour = 8.0;
  double end_hour = 20.0;
  /// Fraction of peak present on weekends (cleaning/security staff).
  double weekend_fraction = 0.0;
  /// Arrival/departure ramp width [hours]. 0 (default) is the stepwise
  /// Sinergym 5Zone schedule: everyone present from start to end. A
  /// nonzero width spreads arrivals/departures linearly across it.
  double ramp_hours = 0.0;
  /// Day-of-week of day 0 (0 = Monday). January 1st 2021 was a Friday (4).
  int first_weekday = 4;

  /// Occupant count at a 15-minute step index from the schedule origin.
  double occupants_at(std::size_t step) const;
  /// True when the zone counts as "occupied" for the reward weighting.
  bool occupied_at(std::size_t step) const { return is_occupied(occupants_at(step)); }

  /// Generates the whole series of length `num_steps`.
  std::vector<double> series(std::size_t num_steps) const;
};

/// The schedule used by all experiments (matches the Sinergym 5Zone default:
/// weekdays 8:00-20:00, 11 occupants in the controlled zone).
OccupancySchedule office_schedule();

}  // namespace verihvac::weather
