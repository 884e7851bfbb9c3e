// Shared toy artifacts for the serving tests: a quickly-trained dynamics
// model with the paper's input shape, a DT policy fitted on synthetic
// decision data, and canonical observations/forecasts. Serving tests
// exercise the scheduler/registry/session machinery, not model quality,
// so the assets only need realistic shapes and deterministic seeds.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "core/dt_policy.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/baseline_layout.hpp"
#include "serve/request_scheduler.hpp"

namespace verihvac::serve::testing {

inline double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const double t = x[env::testing::dim(env::FeatureRole::kZoneTemp)];
  double dt = 0.08 * (x[env::testing::dim(env::FeatureRole::kOutdoorTemp)] - t);
  if (t < a.heating_c) dt += 0.4 * std::min(a.heating_c - t, 1.2);
  if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
  return t + dt;
}

inline std::shared_ptr<const dyn::DynamicsModel> toy_model(std::uint64_t seed = 1) {
  Rng rng(seed);
  dyn::TransitionDataset data;
  for (int i = 0; i < 500; ++i) {
    dyn::Transition t;
    t.input = {rng.uniform(14.0, 28.0), rng.uniform(-8.0, 12.0), 50.0, 3.0,
               rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
    t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
    t.action.cooling_c = static_cast<double>(
        rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
    t.next_zone_temp = toy_plant(t.input, t.action);
    data.add(t);
  }
  dyn::DynamicsModelConfig config;
  config.trainer.epochs = 5;
  auto model = std::make_shared<dyn::DynamicsModel>(config);
  model->train(data);
  return model;
}

inline std::shared_ptr<const core::DtPolicy> toy_policy(std::uint64_t seed = 3,
                                                        control::ActionSpaceConfig grid = {}) {
  control::ActionSpace actions(grid);
  Rng rng(seed);
  core::DecisionDataset data;
  for (int i = 0; i < 200; ++i) {
    core::DecisionRecord rec;
    rec.input = {rng.uniform(12.0, 30.0), rng.uniform(-10.0, 35.0), rng.uniform(20.0, 95.0),
                 rng.uniform(0.0, 12.0), rng.uniform(0.0, 600.0),
                 rng.bernoulli(0.5) ? 11.0 : 0.0};
    rec.action_index = rng.index(actions.size());
    data.records.push_back(std::move(rec));
  }
  return std::make_shared<const core::DtPolicy>(core::DtPolicy::fit(data, actions));
}

inline env::Observation cold_occupied(double zone_temp = 17.5) {
  env::Observation obs;
  obs.zone_temp_c = zone_temp;
  obs.weather.outdoor_temp_c = -5.0;
  obs.weather.humidity_pct = 50.0;
  obs.weather.wind_mps = 3.0;
  obs.weather.solar_wm2 = 120.0;
  obs.occupants = 11.0;
  return obs;
}

inline std::vector<env::Disturbance> steady_forecast(const env::Observation& obs,
                                                     std::size_t horizon) {
  env::Disturbance d;
  d.weather = obs.weather;
  d.occupants = obs.occupants;
  return std::vector<env::Disturbance>(horizon, d);
}

inline std::shared_ptr<const common::TaskPool> pool_with_threads(std::size_t threads) {
  return std::make_shared<const common::TaskPool>(
      common::TaskPoolConfig{threads, /*min_parallel_batch=*/1});
}

/// serve_batch() where every request is expected to succeed: the
/// decisions in request order (the first failure rethrows).
inline std::vector<ControlDecision> serve_all(RequestScheduler& scheduler,
                                              const std::vector<ControlRequest>& requests) {
  std::vector<ControlDecision> decisions;
  for (std::future<ControlDecision>& future : scheduler.serve_batch(requests)) {
    decisions.push_back(future.get());
  }
  return decisions;
}

}  // namespace verihvac::serve::testing
