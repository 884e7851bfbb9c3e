#include "thermosim/thermal_network.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/linalg.hpp"
#include "weather/occupancy.hpp"

namespace verihvac::sim {

EnergyAccount& EnergyAccount::operator+=(const EnergyAccount& other) {
  consumed_joules += other.consumed_joules;
  heating_joules += other.heating_joules;
  cooling_joules += other.cooling_joules;
  controlled_zone_consumed_joules += other.controlled_zone_consumed_joules;
  return *this;
}

ThermalNetwork::ThermalNetwork(Building building, double substep_seconds)
    : building_(std::move(building)), substep_seconds_(substep_seconds) {
  building_.validate();
  if (substep_seconds <= 0.0) {
    throw std::invalid_argument("substep must be positive");
  }
  state_.assign(2 * building_.zone_count(), 20.0);
}

double ThermalNetwork::air_temp(std::size_t zone) const {
  assert(zone < zone_count());
  return state_[zone];
}

double ThermalNetwork::mass_temp(std::size_t zone) const {
  assert(zone < zone_count());
  return state_[zone_count() + zone];
}

void ThermalNetwork::reset(double temp_c) {
  state_.assign(2 * zone_count(), temp_c);
}

void ThermalNetwork::reset(const std::vector<double>& air, const std::vector<double>& mass) {
  if (air.size() != zone_count() || mass.size() != zone_count()) {
    throw std::invalid_argument("reset: wrong vector sizes");
  }
  for (std::size_t i = 0; i < zone_count(); ++i) {
    state_[i] = air[i];
    state_[zone_count() + i] = mass[i];
  }
}

EnergyAccount ThermalNetwork::advance(const std::vector<SetpointPair>& setpoints,
                                      const BoundaryConditions& bc,
                                      double duration_seconds) {
  if (setpoints.size() != zone_count()) {
    throw std::invalid_argument("advance: one setpoint pair per zone required");
  }
  if (bc.occupants.size() != zone_count()) {
    throw std::invalid_argument("advance: one occupant count per zone required");
  }
  EnergyAccount total;
  double remaining = duration_seconds;
  while (remaining > 1e-9) {
    const double dt = std::min(substep_seconds_, remaining);
    total += substep(setpoints, bc, dt);
    remaining -= dt;
  }
  return total;
}

EnergyAccount ThermalNetwork::substep(const std::vector<SetpointPair>& setpoints,
                                      const BoundaryConditions& bc, double dt) {
  const std::size_t n = zone_count();
  const std::size_t dim = 2 * n;

  // Explicit source terms at substep-start temperatures. First pass: all
  // non-HVAC gains, so the ideal-loads thermostat can see the zone's net
  // load before sizing its output.
  EnergyAccount account;
  std::vector<double> q(dim, 0.0);  // [W] into each node
  for (std::size_t i = 0; i < n; ++i) {
    const ZoneParams& zone = building_.zone(i);

    // Internal gains (people + equipment while occupied).
    const double occupants = bc.occupants[i];
    q[i] += occupants * zone.heat_per_occupant;
    if (weather::is_occupied(occupants)) q[i] += zone.equipment_wm2 * zone.floor_area_m2;

    // Solar split between air and mass nodes.
    const double solar_gain = bc.solar_wm2 * zone.solar_aperture_m2;
    q[i] += solar_gain * (1.0 - zone.solar_to_mass_fraction);
    q[n + i] += solar_gain * zone.solar_to_mass_fraction;
  }

  // Second pass: ideal-loads HVAC per zone, sized against the air node's
  // instantaneous balance (gains + envelope + mass + inter-zone flows).
  for (std::size_t i = 0; i < n; ++i) {
    const ZoneParams& zone = building_.zone(i);
    const double ua_inf =
        zone.infiltration_ua + zone.infiltration_wind_coeff * bc.wind_mps;
    const double ua_env = zone.ua_outdoor + ua_inf;
    double net_load_w = q[i] + ua_env * (bc.outdoor_temp_c - state_[i]) +
                        zone.ua_mass * (state_[n + i] - state_[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double ua = building_.interzone_ua(i, j);
      if (ua > 0.0) net_load_w += ua * (state_[j] - state_[i]);
    }

    const HvacOutput hvac = ideal_load_output(building_.hvac(i), state_[i], setpoints[i],
                                              net_load_w, zone.air_capacitance, dt);
    q[i] += hvac.heat_to_zone_w;
    account.consumed_joules += hvac.consumed_power_w * dt;
    if (i == building_.controlled_zone()) {
      account.controlled_zone_consumed_joules += hvac.consumed_power_w * dt;
    }
    if (hvac.heat_to_zone_w > 0.0) {
      account.heating_joules += hvac.heat_to_zone_w * dt;
    } else {
      account.cooling_joules += -hvac.heat_to_zone_w * dt;
    }
  }

  // Conductance matrix K and capacitance vector C for backward Euler:
  //   C * (T' - T)/dt = -K T' + q + K_out * T_out_terms
  // We assemble A = C/dt + K and b = C/dt * T + q + boundary couplings.
  Matrix a(dim, dim);
  std::vector<double> b(dim, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    const ZoneParams& zone = building_.zone(i);
    const double c_air = zone.air_capacitance;
    const double c_mass = zone.mass_capacitance;
    const double ua_inf =
        zone.infiltration_ua + zone.infiltration_wind_coeff * bc.wind_mps;
    const double ua_env = zone.ua_outdoor + ua_inf;

    // Air node i.
    a(i, i) += c_air / dt + ua_env + zone.ua_mass;
    a(i, n + i) -= zone.ua_mass;
    b[i] += (c_air / dt) * state_[i] + q[i] + ua_env * bc.outdoor_temp_c;

    // Mass node i.
    a(n + i, n + i) += c_mass / dt + zone.ua_mass;
    a(n + i, i) -= zone.ua_mass;
    b[n + i] += (c_mass / dt) * state_[n + i] + q[n + i];

    // Inter-zone air-air couplings.
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double ua = building_.interzone_ua(i, j);
      if (ua <= 0.0) continue;
      a(i, i) += ua;
      a(i, j) -= ua;
    }
  }

  state_ = solve_linear(std::move(a), std::move(b));
  return account;
}

}  // namespace verihvac::sim
