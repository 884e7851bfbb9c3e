#include "core/viper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>

#include "common/fnv1a.hpp"
#include "control/rollout_engine.hpp"
#include "core/policy_io.hpp"
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

  /// make_teacher() with rollouts fanned out over a `threads`-wide engine
  /// (min_parallel_batch 1 forces the fan-out on every batch).
  static control::MbrlAgent pooled_teacher(std::size_t threads, bool refine = false) {
    control::RandomShootingConfig rs = fast_rs();
    rs.refine_first_action = refine;
    control::MbrlAgent teacher(*model_, rs, control::ActionSpace{}, fast_env().reward,
                               /*seed=*/5);
    teacher.set_engine(std::make_shared<const control::RolloutEngine>(
        control::RolloutEngineConfig{threads, 1}));
    return teacher;
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

// fast_config() labels of the one-optimizer-call-at-a-time
// action_distribution loop. With the refine sweep the toy teacher settles
// on one action everywhere.
const std::vector<int> kPlainLabels = {
    25, 5, 16, 28, 18, 12, 5, 8, 16, 21, 6, 6, 59, 7, 4, 14, 9, 8,
    28, 8, 7, 18, 8, 16, 9, 16, 25, 26, 9, 37, 18, 8, 15, 19, 8, 7,
    6, 5, 27, 8, 25, 7, 16, 9, 19, 9, 5, 4, 9, 9, 17, 19, 18, 9,
    29, 6, 9, 6, 15, 1, 7, 7, 18, 18, 7, 28, 7, 9, 2, 19, 29, 28};
const std::vector<int> kRefinedLabels(72, 9);

/// FNV-1a of the deployable bundle bytes.
std::uint64_t bundle_digest(const DtPolicy& policy) {
  std::ostringstream out;
  write_policy(policy, out);
  return common::Fnv1a().bytes(out.str()).digest();
}

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
  // The merged-batch kernel, sharded across candidates, must reproduce the
  // one-call-at-a-time labels at every pool size.
  for (const bool refine : {false, true}) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "refine=" << refine << " threads=" << threads);
      auto teacher = pooled_teacher(threads, refine);
      env::BuildingEnv env(fast_env());
      const ViperResult result = viper_extract(teacher, env, fast_config());
      EXPECT_EQ(result.aggregated.labels(), refine ? kRefinedLabels : kPlainLabels);
    }
  }
}

TEST_F(ViperTest, ExtractionPinnedBitForBit) {
  // Everything VIPER derives from its criticality weights, locked at the
  // bit level: each iteration's mean l(s) (hex float), its teacher-match
  // rate, the aggregated labels and the best iterate's bundle bytes (both
  // as FNV-1a digests). A change to how Q(s,a) is scored must leave all of
  // them untouched, at every pool size. fast_config() rolls out night hours
  // only, where l(s) is the unoccupied energy-proxy spread (one constant),
  // so the 48-step cases run on into the occupied morning, where l(s)
  // varies with the visited state and skews the resample.
  struct Golden {
    std::size_t steps;
    bool refine;
    std::vector<double> mean_criticality;
    std::vector<double> teacher_match_rate;
    std::uint64_t labels_fnv1a;
    std::uint64_t bundle_fnv1a;
  };
  const std::vector<Golden> goldens = {
      {24,
       false,
       {0x1.d8d90ea9e6eebp+5, 0x1.d8d90ea9e6eebp+5, 0x1.d8d90ea9e6eebp+5},
       {0x1.5555555555555p-1, 0x1.aaaaaaaaaaaabp-2, 0x1.6aaaaaaaaaaabp-1},
       0xb239922676122e98ull,
       0xb8e57b1a42394fb1ull},
      {24,
       true,
       {0x1.d8d90ea9e6eebp+5, 0x1.d8d90ea9e6eebp+5, 0x1.d8d90ea9e6eebp+5},
       {0x1p+0, 0x1p+0, 0x1p+0},
       0x358ee7d132f9e7a5ull,
       0x2b668d7b689e0388ull},
      {48,
       false,
       {0x1.35ec83b79b87bp+5, 0x1.375c965c00631p+5, 0x1.3ba38dae8c347p+5},
       {0x1.eaaaaaaaaaaabp-2, 0x1.1555555555555p-1, 0x1.d555555555555p-2},
       0x9a7cd940a44149ccull,
       0xc7dc61360fa5aa97ull},
      {48,
       true,
       {0x1.3614f07450a7ap+5, 0x1.35a464f7cf756p+5, 0x1.3c5b3994cdb3cp+5},
       {0x1.cp-1, 0x1.d555555555555p-1, 0x1.d555555555555p-1},
       0x352f0d2bf162340full,
       0xc5ca6b586405f281ull},
  };
  for (const Golden& golden : goldens) {
    ViperConfig config = fast_config();
    config.steps_per_iteration = golden.steps;
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "steps=" << golden.steps << " refine=" << golden.refine
                                      << " threads=" << threads);
      auto teacher = pooled_teacher(threads, golden.refine);
      env::BuildingEnv env(fast_env());
      const ViperResult result = viper_extract(teacher, env, config);
      ASSERT_EQ(result.iterations.size(), golden.mean_criticality.size());
      for (std::size_t m = 0; m < result.iterations.size(); ++m) {
        EXPECT_EQ(result.iterations[m].mean_criticality, golden.mean_criticality[m]) << m;
        EXPECT_EQ(result.iterations[m].teacher_match_rate, golden.teacher_match_rate[m]) << m;
      }
      common::Fnv1a labels;
      for (const int label : result.aggregated.labels()) {
        labels.u64(static_cast<std::uint64_t>(label));
      }
      ASSERT_NE(result.policy, nullptr);
      EXPECT_EQ(labels.digest(), golden.labels_fnv1a);
      EXPECT_EQ(bundle_digest(*result.policy), golden.bundle_fnv1a);
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

TEST_F(ViperTest, ActionValueSpreadMatchesScalarOracle) {
  // The batched spread against its oracle: max - min of the scalar
  // rollout_return over every constant-hold sequence, compared exactly.
  // States sweep the zone temperature occupied (among them the cold- and
  // mid-occupied states of CriticalityHigherWhenComfortIsAtStake) and
  // unoccupied, so both the comfort and the energy terms drive the spread.
  env::BuildingEnv env(fast_env());
  env.reset();
  const auto unoccupied_forecast = env.forecast(fast_rs().horizon);
  auto occupied_forecast = unoccupied_forecast;
  for (auto& d : occupied_forecast) d.occupants = 11.0;

  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const auto teacher = pooled_teacher(threads);
    const control::RandomShooting& rs = teacher.optimizer();
    dyn::PredictScratch scratch;
    for (const double occupants : {11.0, 0.0}) {
      const auto& forecast = occupants > 0.0 ? occupied_forecast : unoccupied_forecast;
      for (const double zone_temp : {12.0, 16.0, 18.0, 20.0, 21.5, 23.0, 25.0, 29.0}) {
        SCOPED_TRACE(testing::Message() << "occupants=" << occupants << " zone=" << zone_temp);
        env::Observation obs = env.observation();
        obs.zone_temp_c = zone_temp;
        obs.occupants = occupants;
        double best = -std::numeric_limits<double>::infinity();
        double worst = std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < teacher.actions().size(); ++a) {
          const std::vector<std::size_t> hold(rs.config().horizon, a);
          const double value = rs.rollout_return(teacher.model(), obs, forecast, hold, scratch);
          best = std::max(best, value);
          worst = std::min(worst, value);
        }
        EXPECT_EQ(action_value_spread(teacher, obs, forecast), best - worst);
      }
    }
  }
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
