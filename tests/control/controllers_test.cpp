#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "control/clue_agent.hpp"
#include "control/evaluate.hpp"
#include "control/mbrl_agent.hpp"
#include "control/random_shooting.hpp"
#include "control/rule_based.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::control {
namespace {

using env::FeatureRole;
using env::testing::dim;

/// Shared fixture: a toy-plant-trained dynamics model (fast, accurate).
class ControllersTest : public ::testing::Test {
 protected:
  static double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
    const double t = x[dim(FeatureRole::kZoneTemp)];
    double dt = 0.08 * (x[dim(FeatureRole::kOutdoorTemp)] - t);
    if (t < a.heating_c) dt += 0.4 * std::min(a.heating_c - t, 1.2);
    if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
    return t + dt;
  }

  static dyn::TransitionDataset toy_data(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    dyn::TransitionDataset data;
    for (std::size_t i = 0; i < n; ++i) {
      dyn::Transition t;
      t.input = {rng.uniform(14.0, 28.0), rng.uniform(-8.0, 12.0), 50.0,
                 3.0,                      rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
      t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
      t.action.cooling_c = static_cast<double>(
          rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
      t.next_zone_temp = toy_plant(t.input, t.action);
      data.add(t);
    }
    return data;
  }

  static const dyn::DynamicsModel& model() {
    static dyn::DynamicsModel* instance = [] {
      dyn::DynamicsModelConfig cfg;
      cfg.hidden = {24, 24};
      cfg.trainer.epochs = 60;
      cfg.trainer.adam.learning_rate = 3e-3;
      auto* m = new dyn::DynamicsModel(cfg);
      m->train(toy_data(2500, 1));
      return m;
    }();
    return *instance;
  }

  static env::Observation cold_occupied() {
    env::Observation obs;
    obs.zone_temp_c = 17.5;  // below winter comfort
    obs.weather.outdoor_temp_c = -5.0;
    obs.weather.humidity_pct = 50.0;
    obs.weather.wind_mps = 3.0;
    obs.weather.solar_wm2 = 0.0;
    obs.occupants = 11.0;
    return obs;
  }

  static env::Observation comfy_unoccupied() {
    env::Observation obs = cold_occupied();
    obs.zone_temp_c = 21.0;
    obs.occupants = 0.0;
    return obs;
  }

  static std::vector<env::Disturbance> persistence_forecast(const env::Observation& obs,
                                                            std::size_t h) {
    env::Disturbance d;
    d.weather = obs.weather;
    d.occupants = obs.occupants;
    return std::vector<env::Disturbance>(h, d);
  }
};

TEST_F(ControllersTest, RuleBasedFollowsOccupancy) {
  RuleBasedController ctrl(sim::SetpointPair{20.0, 23.5}, sim::SetpointPair{15.0, 30.0});
  const auto occupied = ctrl.act(cold_occupied(), {});
  EXPECT_DOUBLE_EQ(occupied.heating_c, 20.0);
  const auto empty = ctrl.act(comfy_unoccupied(), {});
  EXPECT_DOUBLE_EQ(empty.heating_c, 15.0);
  EXPECT_EQ(ctrl.forecast_horizon(), 0u);
  EXPECT_EQ(ctrl.name(), "default");
}

TEST_F(ControllersTest, RandomShootingHeatsColdOccupiedZone) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{512, 8, 0.99}, actions, env::RewardConfig{});
  Rng rng(3);
  const env::Observation obs = cold_occupied();
  const std::size_t idx =
      rs.optimize(model(), obs, persistence_forecast(obs, 8), rng);
  // Occupied + 17.5 degC: the optimizer must drive the zone up (criterion
  // #3 direction). The toy plant caps heating delivery at min(sp-t, 1.2),
  // so every setpoint >= ~19 heats identically and the energy proxy
  // correctly breaks the tie downward; the semantic requirement is only
  // that the chosen setpoint heats at (near-)full capacity.
  EXPECT_GT(actions.action(idx).heating_c, obs.zone_temp_c);
  EXPECT_GE(actions.action(idx).heating_c, 18.0);
}

TEST_F(ControllersTest, RandomShootingSetsBackWhenUnoccupied) {
  // With horizon 1 the best sampled sequence is simply the lowest-energy
  // action; 800 samples over 87 actions hit the exact optimum (15, 30) with
  // overwhelming probability. Unoccupied: w_e = 1 -> energy proxy dominates.
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{800, 1, 0.99}, actions, env::RewardConfig{});
  Rng rng(4);
  const env::Observation obs = comfy_unoccupied();
  const std::size_t idx =
      rs.optimize(model(), obs, persistence_forecast(obs, 1), rng);
  EXPECT_DOUBLE_EQ(actions.action(idx).heating_c, 15.0);
  EXPECT_DOUBLE_EQ(actions.action(idx).cooling_c, 30.0);
}

TEST_F(ControllersTest, RandomShootingTieKeepsFirstDrawnCandidate) {
  // Zero energy weights and an unbounded comfort range make every return
  // exactly 0, so every candidate and every refined first action ties. The
  // strict-`>` argmax keeps the first best: each repeat must choose the
  // first action of its first drawn candidate.
  const ActionSpace actions;
  env::RewardConfig flat;
  flat.comfort = env::ComfortRange{-1e9, 1e9};
  flat.we_occupied = 0.0;
  flat.we_unoccupied = 0.0;
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 4);
  for (const bool refine : {false, true}) {
    RandomShootingConfig config{32, 4, 0.99};
    config.refine_first_action = refine;
    const RandomShooting rs(config, actions, flat);
    Rng rng(21);
    Rng replay = rng;
    std::vector<std::size_t> chosen(8);
    const RandomShooting::Decision decision{model(), obs, forecast, rng, std::span(chosen)};
    rs.solve(std::span(&decision, 1), RandomShooting::Scoring::kCallingThread);
    std::vector<std::vector<std::size_t>> drawn(config.samples);
    for (std::size_t r = 0; r < chosen.size(); ++r) {
      rs.draw_sequences(replay, drawn);
      EXPECT_EQ(chosen[r], drawn.front().front()) << "repeat " << r << " refine " << refine;
    }
  }
}

TEST_F(ControllersTest, RolloutReturnPrefersComfortWhenOccupied) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);
  const std::size_t heat_idx = actions.nearest_index(sim::SetpointPair{22.0, 25.0});
  const std::size_t setback_idx = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
  const std::vector<std::size_t> heat_seq(6, heat_idx);
  const std::vector<std::size_t> setback_seq(6, setback_idx);
  dyn::PredictScratch scratch;
  EXPECT_GT(rs.rollout_return(model(), obs, forecast, heat_seq, scratch),
            rs.rollout_return(model(), obs, forecast, setback_seq, scratch));
}

TEST_F(ControllersTest, RandomShootingShortForecastThrows) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{16, 8, 0.99}, actions, env::RewardConfig{});
  Rng rng(5);
  EXPECT_THROW(
      rs.optimize(model(), cold_occupied(), persistence_forecast(cold_occupied(), 3), rng),
      std::invalid_argument);
}

TEST_F(ControllersTest, RandomShootingConfigValidation) {
  const ActionSpace actions;
  EXPECT_THROW(RandomShooting(RandomShootingConfig{0, 8, 0.99}, actions, {}),
               std::invalid_argument);
  EXPECT_THROW(RandomShooting(RandomShootingConfig{8, 0, 0.99}, actions, {}),
               std::invalid_argument);
}

TEST_F(ControllersTest, MbrlAgentIsStochasticAcrossCalls) {
  MbrlAgent agent(model(), RandomShootingConfig{32, 6, 0.99}, ActionSpace{},
                  env::RewardConfig{}, 7);
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);
  // The motivation experiment (Fig. 1): repeated decisions on the same
  // input spread over multiple actions.
  const auto counts = agent.action_distribution(obs, forecast, 30);
  std::size_t distinct = 0;
  std::size_t total = 0;
  for (std::size_t c : counts) {
    if (c > 0) ++distinct;
    total += c;
  }
  EXPECT_EQ(total, 30u);
  EXPECT_GT(distinct, 1u);
}

TEST_F(ControllersTest, MbrlAgentResetRestoresSeed) {
  MbrlAgent agent(model(), RandomShootingConfig{32, 6, 0.99}, ActionSpace{},
                  env::RewardConfig{}, 7);
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);
  const std::size_t first = agent.decide_once(obs, forecast);
  agent.reset();
  EXPECT_EQ(agent.decide_once(obs, forecast), first);
}

TEST_F(ControllersTest, ClueFallsBackUnderUncertainty) {
  dyn::EnsembleConfig ens_cfg;
  ens_cfg.members = 3;
  ens_cfg.member_config.hidden = {16, 16};
  ens_cfg.member_config.trainer.epochs = 30;
  dyn::EnsembleDynamics ensemble(ens_cfg);
  ensemble.train(toy_data(600, 21));

  ClueConfig clue_cfg;
  clue_cfg.rs = RandomShootingConfig{32, 6, 0.99};
  clue_cfg.uncertainty_threshold_c = 1e-9;  // force fallback on any query
  ClueAgent agent(ensemble, clue_cfg, ActionSpace{}, env::RewardConfig{},
                  sim::SetpointPair{20.0, 23.5}, sim::SetpointPair{15.0, 30.0}, 31);
  const env::Observation obs = cold_occupied();
  const auto action = agent.act(obs, persistence_forecast(obs, 6));
  EXPECT_DOUBLE_EQ(action.heating_c, 20.0);  // occupied fallback
  EXPECT_DOUBLE_EQ(agent.fallback_rate(), 1.0);
}

TEST_F(ControllersTest, ClueTrustsModelWhenCertain) {
  dyn::EnsembleConfig ens_cfg;
  ens_cfg.members = 3;
  ens_cfg.member_config.hidden = {16, 16};
  ens_cfg.member_config.trainer.epochs = 40;
  dyn::EnsembleDynamics ensemble(ens_cfg);
  ensemble.train(toy_data(1500, 22));

  ClueConfig clue_cfg;
  clue_cfg.rs = RandomShootingConfig{64, 6, 0.99};
  clue_cfg.uncertainty_threshold_c = 10.0;  // never fall back
  ClueAgent agent(ensemble, clue_cfg, ActionSpace{}, env::RewardConfig{},
                  sim::SetpointPair{20.0, 23.5}, sim::SetpointPair{15.0, 30.0}, 32);
  const env::Observation obs = comfy_unoccupied();
  const auto action = agent.act(obs, persistence_forecast(obs, 6));
  // Unoccupied and trusting the model: a low-energy plan (heating setpoint
  // well below the occupied fallback's 20), and no fallback recorded.
  EXPECT_LT(action.heating_c, 20.0);
  EXPECT_DOUBLE_EQ(agent.fallback_rate(), 0.0);
}

TEST_F(ControllersTest, RunEpisodeProducesFullTrace) {
  env::EnvConfig cfg;
  cfg.days = 1;
  env::BuildingEnv environment(cfg);
  RuleBasedController ctrl(sim::SetpointPair{20.0, 23.5}, sim::SetpointPair{15.0, 30.0});
  EpisodeTrace trace;
  const env::EpisodeMetrics metrics = run_episode(environment, ctrl, &trace);
  EXPECT_EQ(metrics.steps(), environment.horizon_steps());
  EXPECT_EQ(trace.zone_temps.size(), metrics.steps());
  EXPECT_EQ(trace.actions.size(), metrics.steps());
  EXPECT_GT(metrics.total_energy_kwh(), 0.0);
}

}  // namespace
}  // namespace verihvac::control
