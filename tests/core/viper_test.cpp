#include "core/viper.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "control/rollout_engine.hpp"
#include "core_test_utils.hpp"
#include "envlib/env.hpp"
#include "weather/climate.hpp"

namespace verihvac::core {
namespace {

/// Shared slow fixtures: one trained toy model reused by every test.
class ViperTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    history_ = new dyn::TransitionDataset(testutil::toy_history(1200, 8));
    model_ = testutil::toy_model(*history_);
  }
  static void TearDownTestSuite() {
    delete history_;
    history_ = nullptr;
    model_.reset();
  }

  static control::RandomShootingConfig fast_rs() {
    control::RandomShootingConfig rs;
    rs.samples = 24;
    rs.horizon = 4;
    return rs;
  }

  static env::EnvConfig fast_env() {
    env::EnvConfig config;
    config.climate = weather::pittsburgh();
    config.days = 2;
    return config;
  }

  static control::MbrlAgent make_teacher() {
    return control::MbrlAgent(*model_, fast_rs(), control::ActionSpace{}, fast_env().reward,
                              /*seed=*/5);
  }

  static ViperConfig fast_config() {
    ViperConfig config;
    config.iterations = 3;
    config.steps_per_iteration = 24;
    config.mc_repeats = 2;
    return config;
  }

  static dyn::TransitionDataset* history_;
  static std::shared_ptr<dyn::DynamicsModel> model_;
};

dyn::TransitionDataset* ViperTest::history_ = nullptr;
std::shared_ptr<dyn::DynamicsModel> ViperTest::model_;

TEST_F(ViperTest, RejectsDegenerateConfigs) {
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  ViperConfig config = fast_config();
  config.iterations = 0;
  EXPECT_THROW(viper_extract(teacher, env, config), std::invalid_argument);
  config = fast_config();
  config.steps_per_iteration = 0;
  EXPECT_THROW(viper_extract(teacher, env, config), std::invalid_argument);
  config = fast_config();
  config.mc_repeats = 0;
  EXPECT_THROW(viper_extract(teacher, env, config), std::invalid_argument);
}

TEST_F(ViperTest, AggregatesOneBatchPerIteration) {
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  const ViperConfig config = fast_config();
  const ViperResult result = viper_extract(teacher, env, config);
  ASSERT_EQ(result.iterations.size(), config.iterations);
  EXPECT_EQ(result.aggregated.size(), config.iterations * config.steps_per_iteration);
  for (std::size_t m = 0; m < config.iterations; ++m) {
    EXPECT_EQ(result.iterations[m].aggregated_size, (m + 1) * config.steps_per_iteration);
    EXPECT_GE(result.iterations[m].teacher_match_rate, 0.0);
    EXPECT_LE(result.iterations[m].teacher_match_rate, 1.0);
    EXPECT_GE(result.iterations[m].mean_criticality, 0.0);
    EXPECT_GE(result.iterations[m].tree_nodes, 1u);
  }
}

TEST_F(ViperTest, ReturnsBestIterateByTeacherMatch) {
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  const ViperResult result = viper_extract(teacher, env, fast_config());
  ASSERT_NE(result.policy, nullptr);
  ASSERT_LT(result.best_iteration, result.iterations.size());
  const double best = result.iterations[result.best_iteration].teacher_match_rate;
  for (const auto& it : result.iterations) EXPECT_LE(it.teacher_match_rate, best + 1e-12);
}

TEST_F(ViperTest, UniformAggregationModeRuns) {
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  ViperConfig config = fast_config();
  config.q_weighted = false;  // plain DAgger
  const ViperResult result = viper_extract(teacher, env, config);
  ASSERT_NE(result.policy, nullptr);
  // Without Q-weighting every criticality weight is reported as 1.
  for (const auto& it : result.iterations) EXPECT_DOUBLE_EQ(it.mean_criticality, 1.0);
}

TEST_F(ViperTest, ResampleSizeCapsTheFitSet) {
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  ViperConfig config = fast_config();
  config.iterations = 2;
  config.resample_size = 10;  // tiny fit set => tiny trees
  const ViperResult result = viper_extract(teacher, env, config);
  for (const auto& it : result.iterations) EXPECT_LE(it.tree_nodes, 19u);  // <= 2*10-1
}

TEST_F(ViperTest, DeterministicForFixedSeed) {
  const ViperConfig config = fast_config();
  auto teacher1 = make_teacher();
  env::BuildingEnv env1(fast_env());
  const ViperResult a = viper_extract(teacher1, env1, config);
  auto teacher2 = make_teacher();
  env::BuildingEnv env2(fast_env());
  const ViperResult b = viper_extract(teacher2, env2, config);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t m = 0; m < a.iterations.size(); ++m) {
    EXPECT_EQ(a.iterations[m].tree_nodes, b.iterations[m].tree_nodes);
    EXPECT_DOUBLE_EQ(a.iterations[m].teacher_match_rate, b.iterations[m].teacher_match_rate);
  }
}

TEST_F(ViperTest, LabelsPinnedAcrossPools) {
  // Labels of the one-optimizer-call-at-a-time action_distribution loop.
  // The merged-batch kernel, sharded across candidates (min_parallel_batch
  // 1 forces the fan-out), must reproduce them at every pool size.
  const std::vector<int> expected_plain = {
      25, 5, 16, 28, 18, 12, 5, 8, 16, 21, 6, 6, 59, 7, 4, 14, 9, 8,
      28, 8, 7, 18, 8, 16, 9, 16, 25, 26, 9, 37, 18, 8, 15, 19, 8, 7,
      6, 5, 27, 8, 25, 7, 16, 9, 19, 9, 5, 4, 9, 9, 17, 19, 18, 9,
      29, 6, 9, 6, 15, 1, 7, 7, 18, 18, 7, 28, 7, 9, 2, 19, 29, 28};
  // With the refine sweep the toy teacher settles on one action everywhere.
  const std::vector<int> expected_refined(72, 9);
  for (const bool refine : {false, true}) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "refine=" << refine << " threads=" << threads);
      control::RandomShootingConfig rs = fast_rs();
      rs.refine_first_action = refine;
      control::MbrlAgent teacher(*model_, rs, control::ActionSpace{}, fast_env().reward,
                                 /*seed=*/5);
      teacher.set_engine(std::make_shared<const control::RolloutEngine>(
          control::RolloutEngineConfig{threads, 1}));
      env::BuildingEnv env(fast_env());
      const ViperResult result = viper_extract(teacher, env, fast_config());
      EXPECT_EQ(result.aggregated.labels(), refine ? expected_refined : expected_plain);
    }
  }
}

TEST_F(ViperTest, ActionValueSpreadIsNonNegativeAndNeedsForecast) {
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  const env::Observation obs = env.reset();
  const auto forecast = env.forecast(teacher.forecast_horizon());
  EXPECT_GE(action_value_spread(teacher, obs, forecast), 0.0);
  const std::vector<env::Disturbance> short_forecast(forecast.begin(), forecast.begin() + 1);
  EXPECT_THROW(action_value_spread(teacher, obs, short_forecast), std::invalid_argument);
}

TEST_F(ViperTest, CriticalityHigherWhenComfortIsAtStake) {
  // Both states are occupied over the whole horizon, so Eq. 2 weights the
  // energy proxy identically (w_e = 1e-2) and the spread difference is
  // driven by comfort: at 16 degC a wrong action (setback) accumulates a
  // ~4 degC comfort penalty every step while the right action recovers,
  // whereas at 21.5 degC nearly every action keeps the zone in comfort.
  // (Comparing an occupied against an *unoccupied* state would not work:
  // unoccupied w_e = 1 makes the raw energy proxy dominate the spread.)
  auto teacher = make_teacher();
  env::BuildingEnv env(fast_env());
  env.reset();
  auto forecast = env.forecast(teacher.forecast_horizon());
  for (auto& d : forecast) d.occupants = 11.0;

  env::Observation cold_occupied = env.observation();
  cold_occupied.zone_temp_c = 16.0;
  cold_occupied.occupants = 11.0;
  env::Observation mid_occupied = env.observation();
  mid_occupied.zone_temp_c = 21.5;
  mid_occupied.occupants = 11.0;

  const double critical = action_value_spread(teacher, cold_occupied, forecast);
  const double relaxed = action_value_spread(teacher, mid_occupied, forecast);
  EXPECT_GT(critical, relaxed);
}

}  // namespace
}  // namespace verihvac::core
