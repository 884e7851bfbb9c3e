// Whole-system behaviour tests: deploy pipeline-produced policies into the
// simulated building and check the paper's qualitative claims at tiny scale.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>

#include "control/evaluate.hpp"
#include "core/pipeline.hpp"
#include "core/policy_io.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::testing::flatten;

PipelineConfig tiny_config() {
  PipelineConfig cfg = PipelineConfig::for_city("Pittsburgh");
  cfg.env.days = 5;  // Fri + weekend + Mon/Tue: both schedule regimes
  cfg.collection.episodes = 1;
  cfg.model.hidden = {20, 20};
  cfg.model.trainer.epochs = 60;
  cfg.rs.samples = 64;
  cfg.rs.horizon = 6;
  cfg.rs_distill = cfg.rs;
  cfg.rs_distill.refine_first_action = true;
  cfg.decision.mc_repeats = 3;
  cfg.decision_points = 400;
  cfg.probabilistic_samples = 300;
  return cfg;
}

class EndToEndTest : public ::testing::Test {
 protected:
  static const PipelineArtifacts& artifacts() {
    static const PipelineArtifacts instance = run_pipeline(tiny_config());
    return instance;
  }
};

TEST_F(EndToEndTest, DtPolicyRunsAFullEpisode) {
  env::BuildingEnv environment(artifacts().config.env);
  auto policy = artifacts().make_dt_policy();
  const env::EpisodeMetrics metrics = control::run_episode(environment, *policy);
  EXPECT_EQ(metrics.steps(), environment.horizon_steps());
  EXPECT_GT(metrics.total_energy_kwh(), 0.0);
  EXPECT_LE(metrics.violation_rate(), 1.0);
}

TEST_F(EndToEndTest, DtPolicyIsDeterministicAcrossRedeployments) {
  // The Fig. 5 claim at system level: identical episodes, bit-for-bit.
  env::BuildingEnv env1(artifacts().config.env);
  env::BuildingEnv env2(artifacts().config.env);
  auto p1 = artifacts().make_dt_policy();
  auto p2 = artifacts().make_dt_policy();
  control::EpisodeTrace t1;
  control::EpisodeTrace t2;
  control::run_episode(env1, *p1, &t1);
  control::run_episode(env2, *p2, &t2);
  ASSERT_EQ(t1.actions.size(), t2.actions.size());
  for (std::size_t i = 0; i < t1.actions.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.actions[i].heating_c, t2.actions[i].heating_c);
    EXPECT_DOUBLE_EQ(t1.actions[i].cooling_c, t2.actions[i].cooling_c);
    EXPECT_DOUBLE_EQ(t1.zone_temps[i], t2.zone_temps[i]);
  }
}

TEST_F(EndToEndTest, MbrlAgentIsStochasticAcrossRuns) {
  // The Fig. 1 motivation at system level: two fresh-seeded MBRL runs
  // choose different actions somewhere along the same episode.
  auto agent = artifacts().make_mbrl_agent();
  env::BuildingEnv env1(artifacts().config.env);
  control::EpisodeTrace t1;
  control::run_episode(env1, *agent, &t1);

  auto agent2 = std::make_unique<control::MbrlAgent>(
      *artifacts().model, artifacts().config.rs,
      control::ActionSpace(artifacts().config.action_space), artifacts().config.env.reward,
      /*seed=*/999);
  env::BuildingEnv env2(artifacts().config.env);
  control::EpisodeTrace t2;
  control::run_episode(env2, *agent2, &t2);

  std::size_t differing = 0;
  for (std::size_t i = 0; i < t1.actions.size(); ++i) {
    if (t1.actions[i].heating_c != t2.actions[i].heating_c ||
        t1.actions[i].cooling_c != t2.actions[i].cooling_c) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(EndToEndTest, DtSavesEnergyVersusAlwaysOnDefault) {
  // The central Fig. 4 direction at tiny scale: the extracted policy uses
  // less energy than a default controller that never sets back.
  env::BuildingEnv env_dt(artifacts().config.env);
  auto policy = artifacts().make_dt_policy();
  const auto dt_metrics = control::run_episode(env_dt, *policy);

  control::RuleBasedController always_on(sim::SetpointPair{21.0, 23.5},
                                         sim::SetpointPair{21.0, 23.5});
  env::BuildingEnv env_on(artifacts().config.env);
  const auto on_metrics = control::run_episode(env_on, always_on);

  EXPECT_LT(dt_metrics.total_energy_kwh(), on_metrics.total_energy_kwh());
}

TEST_F(EndToEndTest, DtDecisionLatencyIsMicroseconds) {
  // Table 3's claim, loosely: a DT decision must be orders of magnitude
  // below a 15-minute control step; bound it at 50 microseconds average.
  auto policy = artifacts().make_dt_policy();
  env::Observation obs;
  obs.zone_temp_c = 21.0;
  obs.occupants = 11.0;
  const auto start = std::chrono::steady_clock::now();
  constexpr int kReps = 20000;
  volatile double sink = 0.0;
  for (int i = 0; i < kReps; ++i) {
    obs.zone_temp_c = 18.0 + (i % 80) * 0.1;
    sink = sink + policy->act(obs, {}).heating_c;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double us_per_decision =
      std::chrono::duration<double, std::micro>(elapsed).count() / kReps;
  EXPECT_LT(us_per_decision, 50.0);
}

TEST_F(EndToEndTest, VerifiedTreeSurvivesSerializationDeployment) {
  // Deployment path: save the verified policy bundle, load it on the "edge
  // device", confirm identical decisions on live observations.
  const std::string path =
      (std::filesystem::temp_directory_path() / "verihvac_deploy.bundle").string();
  save_policy(*artifacts().policy, path);
  const DtPolicy deployed = load_policy(path);

  env::BuildingEnv environment(artifacts().config.env);
  env::Observation obs = environment.reset();
  for (int i = 0; i < 200; ++i) {
    const auto expected = artifacts().policy->decide(flatten(obs));
    const auto got = deployed.decide(flatten(obs));
    EXPECT_DOUBLE_EQ(got.heating_c, expected.heating_c);
    EXPECT_DOUBLE_EQ(got.cooling_c, expected.cooling_c);
    obs = environment.step(got).observation;
  }
}

}  // namespace
}  // namespace verihvac::core
