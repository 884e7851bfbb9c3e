// Shared fixtures for the core-module tests: a fast analytic "toy plant",
// synthetic historical datasets, and a cheaply trained dynamics model, so
// the §3.2/§3.3 machinery can be exercised without full-scale training.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "dynamics/dataset.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core::testutil {

inline double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  // Balanced so a comfort-range heating setpoint can actually hold the zone
  // in the comfort band against winter conduction (droop < 1 degC).
  const double t = x[env::testing::dim(env::FeatureRole::kZoneTemp)];
  double dt = 0.02 * (x[env::testing::dim(env::FeatureRole::kOutdoorTemp)] - t);
  if (t < a.heating_c) dt += 0.6 * std::min(a.heating_c - t, 3.0);
  if (t > a.cooling_c) dt -= 0.5 * std::min(t - a.cooling_c, 3.0);
  dt += 0.01 * x[env::testing::dim(env::FeatureRole::kOccupancy)];
  return t + dt;
}

/// Historical dataset shaped like a real BMS log: daily occupancy pattern,
/// correlated weather, mixed exploration actions. Episode-ordered so
/// forecast_from() continuations are meaningful.
inline dyn::TransitionDataset toy_history(std::size_t steps, std::uint64_t seed) {
  Rng rng(seed);
  dyn::TransitionDataset data;
  double zone_temp = 20.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double hour = static_cast<double>(i % 96) / 4.0;
    const bool occupied = hour >= 8.0 && hour < 20.0;
    dyn::Transition t;
    t.input = {zone_temp,
               -2.0 + 4.0 * std::sin(hour / 24.0 * 6.283) + rng.normal(0.0, 1.5),
               65.0 + rng.normal(0.0, 8.0),
               3.0 + std::abs(rng.normal(0.0, 1.5)),
               (hour > 8 && hour < 17) ? rng.uniform(50.0, 350.0) : 0.0,
               occupied ? 11.0 : 0.0};
    if (rng.bernoulli(0.35)) {
      t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
      t.action.cooling_c = static_cast<double>(
          rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
    } else {
      t.action = occupied ? sim::SetpointPair{21.0, 23.5} : sim::SetpointPair{15.0, 30.0};
    }
    t.next_zone_temp = toy_plant(t.input, t.action);
    data.add(t);
    zone_temp = t.next_zone_temp;
  }
  return data;
}

/// A dynamics model trained quickly on the toy history.
inline std::shared_ptr<dyn::DynamicsModel> toy_model(const dyn::TransitionDataset& data) {
  dyn::DynamicsModelConfig cfg;
  cfg.hidden = {24, 24};
  cfg.trainer.epochs = 50;
  cfg.trainer.adam.learning_rate = 3e-3;
  auto model = std::make_shared<dyn::DynamicsModel>(cfg);
  model->train(data);
  return model;
}

}  // namespace verihvac::core::testutil
