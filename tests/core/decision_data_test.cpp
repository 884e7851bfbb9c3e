#include "core/decision_data.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/stats.hpp"
#include "control/rollout_engine.hpp"
#include "control/rs_oracle.hpp"
#include "core/core_test_utils.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::FeatureRole;
using env::testing::baseline_dims;
using env::testing::dim;
using control::testing::oracle_optimize;
using testutil::toy_history;
using testutil::toy_model;

TEST(ModalIndexTest, PicksMostFrequent) {
  EXPECT_EQ(modal_index({1, 5, 2}), 1u);
  EXPECT_EQ(modal_index({9}), 0u);
}

TEST(ModalIndexTest, TieBreaksToLowestIndex) {
  EXPECT_EQ(modal_index({3, 3, 1}), 0u);
}

TEST(ModalIndexTest, EmptyThrows) {
  EXPECT_THROW(modal_index({}), std::invalid_argument);
}

TEST(RunsToSettleTest, UnanimousThreeOfFiveIsSettled) {
  EXPECT_EQ(runs_to_settle({0, 3, 0}, 2), 0u);
  EXPECT_EQ(modal_index({0, 3, 0}), 1u);
}

TEST(RunsToSettleTest, FirstBatchIsAStrictMajority) {
  EXPECT_EQ(runs_to_settle({0, 0, 0}, 5), 3u);
  EXPECT_EQ(runs_to_settle({0, 0, 0}, 10), 6u);
}

TEST(RunsToSettleTest, TwoToOneWithTwoLeftNeedsOneMore) {
  EXPECT_EQ(runs_to_settle({2, 1, 0}, 2), 1u);
  // Whichever way that run goes: 3-1 settles, 2-2 needs the last run.
  EXPECT_EQ(runs_to_settle({3, 1, 0}, 1), 0u);
  EXPECT_EQ(runs_to_settle({2, 2, 0}, 1), 1u);
}

TEST(RunsToSettleTest, ThreeWaySplitWithTwoLeftNeedsBoth) {
  EXPECT_EQ(runs_to_settle({1, 1, 1}, 2), 2u);
}

TEST(RunsToSettleTest, EvenTieNeverSettlesEarly) {
  // R = 10: a 5-5 split is only known once every run is in, and the
  // lower index wins it.
  EXPECT_EQ(runs_to_settle({4, 4}, 2), 2u);
  EXPECT_EQ(runs_to_settle({5, 4}, 1), 1u);
  EXPECT_EQ(runs_to_settle({5, 5}, 0), 0u);
  EXPECT_EQ(modal_index({5, 5}), 0u);
}

TEST(RunsToSettleTest, SingleRun) {
  EXPECT_EQ(runs_to_settle({0, 0}, 1), 1u);
  EXPECT_EQ(runs_to_settle({0, 1}, 0), 0u);
}

TEST(DecisionDatasetTest, ViewsAndPrefix) {
  DecisionDataset data;
  data.records.push_back({{1, 2, 3, 4, 5, 6}, 7});
  data.records.push_back({{6, 5, 4, 3, 2, 1}, 9});
  const auto xs = data.inputs();
  const auto ys = data.labels();
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[1][0], 6.0);
  EXPECT_EQ(ys[0], 7);
  const DecisionDataset one = data.prefix(1);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(data.prefix(10).size(), 2u);
}

TEST(AugmentedSamplerTest, RejectsBadConstruction) {
  EXPECT_THROW(AugmentedSampler(Matrix(0, 6), 0.01), std::invalid_argument);
  Matrix data(3, 6, 1.0);
  EXPECT_THROW(AugmentedSampler(data, -0.1), std::invalid_argument);
}

TEST(AugmentedSamplerTest, ZeroNoiseReproducesHistoricalRows) {
  const auto history = toy_history(200, 1);
  const Matrix inputs = history.policy_inputs();
  AugmentedSampler sampler(inputs, 0.0);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto [x, row] = sampler.sample(rng);
    const auto original = inputs.row(row);
    for (std::size_t c = 0; c < x.size(); ++c) EXPECT_DOUBLE_EQ(x[c], original[c]);
  }
}

TEST(AugmentedSamplerTest, NoiseScalesWithDimensionStd) {
  // Eq. 5: per-dimension noise std = noise_level * dimension std. Uses the
  // unclamped zone/outdoor dims of the baseline schema as the wide/narrow
  // probes (the sampler validates row width against its schema).
  Matrix data(2000, 6);
  Rng gen(3);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    data(r, 0) = gen.normal(0.0, 10.0);  // wide dimension
    data(r, 1) = gen.normal(0.0, 0.1);   // narrow dimension
  }
  AugmentedSampler sampler(data, 0.5);
  EXPECT_NEAR(sampler.dimension_stds()[0], 10.0, 0.5);
  EXPECT_NEAR(sampler.dimension_stds()[1], 0.1, 0.01);

  Rng rng(4);
  RunningStats dev0;
  RunningStats dev1;
  for (int i = 0; i < 4000; ++i) {
    const auto [x, row] = sampler.sample(rng);
    dev0.add(x[0] - data(row, 0));
    dev1.add(x[1] - data(row, 1));
  }
  EXPECT_NEAR(dev0.stddev(), 5.0, 0.3);   // 0.5 * 10
  EXPECT_NEAR(dev1.stddev(), 0.05, 0.01); // 0.5 * 0.1
}

TEST(AugmentedSamplerTest, PhysicalClampsHold) {
  const auto history = toy_history(300, 5);
  AugmentedSampler sampler(history.policy_inputs(), 1.0);  // huge noise
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const auto [x, row] = sampler.sample(rng);
    (void)row;
    EXPECT_GE(x[dim(FeatureRole::kHumidity)], 0.0);
    EXPECT_LE(x[dim(FeatureRole::kHumidity)], 100.0);
    EXPECT_GE(x[dim(FeatureRole::kWind)], 0.0);
    EXPECT_GE(x[dim(FeatureRole::kSolar)], 0.0);
    EXPECT_GE(x[dim(FeatureRole::kOccupancy)], 0.0);
  }
}

TEST(AugmentedSamplerTest, SampleManyCount) {
  const auto history = toy_history(100, 7);
  AugmentedSampler sampler(history.policy_inputs(), 0.01);
  Rng rng(8);
  EXPECT_EQ(sampler.sample_many(42, rng).size(), 42u);
}

TEST(AugmentedSamplerTest, HigherNoiseIncreasesJsdFromOriginal) {
  // The Fig. 3 calibration premise at the sampler level.
  const auto history = toy_history(2000, 9);
  const Matrix inputs = history.policy_inputs();
  std::vector<std::vector<double>> original;
  for (std::size_t r = 0; r < inputs.rows(); ++r) original.push_back(inputs.row(r));

  double prev_jsd = -1.0;
  for (const double noise : {0.01, 0.2, 0.8}) {
    AugmentedSampler sampler(inputs, noise);
    Rng rng(10);
    const auto sampled = sampler.sample_many(2000, rng);
    const double jsd = mean_marginal_jsd(original, sampled, 24);
    EXPECT_GT(jsd, prev_jsd - 0.01);
    prev_jsd = jsd;
  }
}

TEST(GeneratorTest, ForecastContinuesHistory) {
  const auto history = toy_history(300, 11);
  DecisionDataConfig cfg;
  DecisionDataGenerator generator(history, cfg);
  const auto forecast = generator.forecast_from(10, 5);
  ASSERT_EQ(forecast.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    const auto& expected = history.at(10 + k + 1).input;
    EXPECT_DOUBLE_EQ(forecast[k].weather.outdoor_temp_c, expected[dim(FeatureRole::kOutdoorTemp)]);
    EXPECT_DOUBLE_EQ(forecast[k].occupants, expected[dim(FeatureRole::kOccupancy)]);
  }
}

TEST(GeneratorTest, ForecastClampsAtHistoryEnd) {
  const auto history = toy_history(50, 12);
  DecisionDataGenerator generator(history, DecisionDataConfig{});
  const auto forecast = generator.forecast_from(48, 6);
  ASSERT_EQ(forecast.size(), 6u);
  const auto& last = history.at(49).input;
  for (std::size_t k = 1; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(forecast[k].weather.outdoor_temp_c, last[dim(FeatureRole::kOutdoorTemp)]);
  }
}

TEST(GeneratorTest, RejectsZeroRepeats) {
  const auto history = toy_history(50, 13);
  DecisionDataConfig cfg;
  cfg.mc_repeats = 0;
  EXPECT_THROW(DecisionDataGenerator(history, cfg), std::invalid_argument);
}

TEST(GeneratorTest, GeneratesRequestedPointsWithValidLabels) {
  const auto history = toy_history(400, 14);
  const auto model = toy_model(history);
  control::ActionSpace actions;
  control::MbrlAgent agent(*model, control::RandomShootingConfig{24, 4, 0.99}, actions,
                           env::RewardConfig{}, 15);
  DecisionDataConfig cfg;
  cfg.mc_repeats = 3;
  cfg.seed = 16;
  DecisionDataGenerator generator(history, cfg);
  const DecisionDataset data = generator.generate(agent, 40);
  ASSERT_EQ(data.size(), 40u);
  for (const auto& record : data.records) {
    EXPECT_EQ(record.input.size(), baseline_dims());
    EXPECT_LT(record.action_index, actions.size());
  }
}

TEST(GeneratorTest, GenerationIsDeterministicGivenSeeds) {
  const auto history = toy_history(400, 17);
  const auto model = toy_model(history);
  auto make = [&]() {
    control::MbrlAgent agent(*model, control::RandomShootingConfig{16, 4, 0.99},
                             control::ActionSpace{}, env::RewardConfig{}, 18);
    agent.reset();
    DecisionDataConfig cfg;
    cfg.mc_repeats = 2;
    cfg.seed = 19;
    DecisionDataGenerator generator(history, cfg);
    return generator.generate(agent, 20);
  };
  const DecisionDataset a = make();
  const DecisionDataset b = make();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records[i].action_index, b.records[i].action_index);
    EXPECT_EQ(a.records[i].input, b.records[i].input);
  }
}

TEST(GeneratorTest, DistilledActionsReflectComfortLogic) {
  // Occupied cold inputs should overwhelmingly distill to heating actions,
  // unoccupied ones to setback.
  const auto history = toy_history(600, 20);
  const auto model = toy_model(history);
  control::ActionSpace actions;
  control::MbrlAgent agent(*model, control::RandomShootingConfig{48, 5, 0.99}, actions,
                           env::RewardConfig{}, 21);
  DecisionDataConfig cfg;
  cfg.mc_repeats = 5;
  DecisionDataGenerator generator(history, cfg);
  const DecisionDataset data = generator.generate(agent, 150);

  std::size_t occupied_cold = 0;
  std::size_t occupied_cold_heating = 0;
  std::size_t unoccupied = 0;
  std::size_t unoccupied_setback = 0;
  for (const auto& r : data.records) {
    const auto action = actions.action(r.action_index);
    const bool occupied = r.input[dim(FeatureRole::kOccupancy)] > 0.5;
    if (occupied && r.input[dim(FeatureRole::kZoneTemp)] < 19.5) {
      ++occupied_cold;
      if (action.heating_c >= 19.0) ++occupied_cold_heating;
    }
    if (!occupied) {
      ++unoccupied;
      if (action.heating_c <= 16.0) ++unoccupied_setback;
    }
  }
  if (occupied_cold > 5) {
    EXPECT_GT(static_cast<double>(occupied_cold_heating) / occupied_cold, 0.7);
  }
  ASSERT_GT(unoccupied, 10u);
  EXPECT_GT(static_cast<double>(unoccupied_setback) / unoccupied, 0.7);
}

// ---------------------------------------------------------------------------
// Bit-identity of the point-sharded generator against the serial oracle.

/// Leader's count minus the runner-up's.
std::size_t lead(std::vector<std::size_t> counts) {
  std::sort(counts.rbegin(), counts.rend());
  return counts.size() > 1 ? counts[0] - counts[1] : counts[0];
}

/// How the oracle's points settled: `early` counts points whose mode was
/// fixed before their last run (the lead exceeded the runs left), `last`
/// points whose mode stayed open until the last run (a lead of at most 1
/// over the first R - 1 runs).
struct Settling {
  std::size_t early = 0;
  std::size_t last = 0;
};

/// The serial per-point loop: sample a point, then label it with all
/// `mc_repeats` back-to-back optimizer calls on `agent_rng`.
DecisionDataset oracle_generate(const DecisionDataGenerator& generator,
                                const DecisionDataConfig& cfg,
                                const control::RandomShooting& rs,
                                const dyn::DynamicsModel& model, Rng& agent_rng,
                                std::size_t n_points, std::size_t n_actions,
                                Settling* settling = nullptr) {
  DecisionDataset data;
  Rng rng(cfg.seed);
  for (std::size_t i = 0; i < n_points; ++i) {
    auto [x, row] = generator.sampler().sample(rng);
    const env::Observation obs = cfg.schema.to_observation(x);
    const auto forecast = generator.forecast_from(row, rs.config().horizon);
    std::vector<std::size_t> counts(n_actions, 0);
    bool early = false;
    for (std::size_t r = 0; r < cfg.mc_repeats; ++r) {
      if (r + 1 == cfg.mc_repeats && lead(counts) <= 1 && settling) ++settling->last;
      ++counts[oracle_optimize(rs, model, obs, forecast, agent_rng, n_actions)];
      early = early || (r + 1 < cfg.mc_repeats && lead(counts) > cfg.mc_repeats - r - 1);
    }
    if (early && settling) ++settling->early;
    data.records.push_back({std::move(x), modal_index(counts)});
  }
  return data;
}

class GeneratorBitIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    history_ = new dyn::TransitionDataset(toy_history(400, 31));
    model_ = toy_model(*history_);
  }
  static void TearDownTestSuite() {
    delete history_;
    history_ = nullptr;
    model_.reset();
  }

  static control::RandomShootingConfig rs_config(bool refine) {
    control::RandomShootingConfig rs{24, 4, 0.99};
    rs.refine_first_action = refine;
    return rs;
  }

  static dyn::TransitionDataset* history_;
  static std::shared_ptr<dyn::DynamicsModel> model_;
};

dyn::TransitionDataset* GeneratorBitIdentityTest::history_ = nullptr;
std::shared_ptr<dyn::DynamicsModel> GeneratorBitIdentityTest::model_;

TEST_F(GeneratorBitIdentityTest, EqualsSerialOracleAtEveryPoolAndLeavesRngInStep) {
  const control::ActionSpace actions;
  const std::uint64_t agent_seed = 32;
  for (const bool refine : {false, true}) {
    // Even repeat counts reach the tie path: an R/2-R/2 split is settled
    // only by its last run, and the lower index wins it.
    for (const std::size_t repeats : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                                      std::size_t{10}}) {
      DecisionDataConfig cfg;
      cfg.mc_repeats = repeats;
      cfg.seed = 33;
      DecisionDataGenerator generator(*history_, cfg);
      const control::RandomShooting oracle_rs(rs_config(refine), actions, env::RewardConfig{});
      // 5 points: below the default min_parallel_batch and below the larger
      // thread counts; 40: sharded into chunks across every pool.
      for (const std::size_t n_points : {std::size_t{5}, std::size_t{40}}) {
        Rng oracle_rng(agent_seed);
        Settling settling;
        const DecisionDataset expected = oracle_generate(
            generator, cfg, oracle_rs, *model_, oracle_rng, n_points, actions.size(), &settling);
        if (repeats > 1 && n_points == 40) {
          // The fixture reaches both ends of the early stop: points it
          // settles before the last run, and points only the last run settles.
          EXPECT_GT(settling.early, 0u) << "refine=" << refine << " repeats=" << repeats;
          EXPECT_GT(settling.last, 0u) << "refine=" << refine << " repeats=" << repeats;
        }
        const env::Observation next_obs = cfg.schema.to_observation(expected.records[0].input);
        const auto next_forecast = generator.forecast_from(7, oracle_rs.config().horizon);
        const std::size_t next_expected =
            oracle_optimize(oracle_rs, *model_, next_obs, next_forecast, oracle_rng,
                            actions.size());

        for (const std::size_t threads : {1, 2, 4, 8}) {
          // min_parallel_batch 1 fans even 5 points out; the default runs
          // them inline on the caller.
          for (const std::size_t min_batch : {std::size_t{1}, std::size_t{16}}) {
            SCOPED_TRACE(testing::Message() << "refine=" << refine << " repeats=" << repeats
                                            << " points=" << n_points << " threads=" << threads
                                            << " min_parallel_batch=" << min_batch);
            control::MbrlAgent agent(*model_, rs_config(refine), actions, env::RewardConfig{},
                                     agent_seed);
            agent.set_engine(std::make_shared<const control::RolloutEngine>(
                control::RolloutEngineConfig{threads, min_batch}));
            const DecisionDataset data = generator.generate(agent, n_points);
            ASSERT_EQ(data.size(), expected.size());
            for (std::size_t i = 0; i < data.size(); ++i) {
              EXPECT_EQ(data.records[i].input, expected.records[i].input) << "point " << i;
              EXPECT_EQ(data.records[i].action_index, expected.records[i].action_index)
                  << "point " << i;
            }
            EXPECT_EQ(agent.decide_once(next_obs, next_forecast), next_expected);
          }
        }
      }
    }
  }
}

TEST_F(GeneratorBitIdentityTest, EngineFreeAgentEqualsOracle) {
  const control::ActionSpace actions;
  DecisionDataConfig cfg;
  cfg.mc_repeats = 3;
  cfg.seed = 34;
  DecisionDataGenerator generator(*history_, cfg);
  control::MbrlAgent agent(*model_, rs_config(true), actions, env::RewardConfig{}, 35);
  const DecisionDataset data = generator.generate(agent, 12);
  Rng oracle_rng(35);
  const DecisionDataset expected =
      oracle_generate(generator, cfg, agent.optimizer(), *model_, oracle_rng, 12, actions.size());
  EXPECT_EQ(data.labels(), expected.labels());
  EXPECT_EQ(data.inputs(), expected.inputs());
}

TEST_F(GeneratorBitIdentityTest, ActionDistributionEqualsRepeatedOracleCalls) {
  const control::ActionSpace actions;
  DecisionDataGenerator generator(*history_, DecisionDataConfig{});
  Rng sampler_rng(36);
  const auto [x, row] = generator.sampler().sample(sampler_rng);
  const env::Observation obs = env::baseline_schema().to_observation(x);
  const auto forecast = generator.forecast_from(row, 4);
  for (const bool refine : {false, true}) {
    const control::RandomShooting oracle_rs(rs_config(refine), actions, env::RewardConfig{});
    Rng oracle_rng(37);
    std::vector<std::size_t> expected(actions.size(), 0);
    for (int r = 0; r < 7; ++r) {
      ++expected[oracle_optimize(oracle_rs, *model_, obs, forecast, oracle_rng, actions.size())];
    }
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "refine=" << refine << " threads=" << threads);
      control::MbrlAgent agent(*model_, rs_config(refine), actions, env::RewardConfig{}, 37);
      agent.set_engine(std::make_shared<const control::RolloutEngine>(
          control::RolloutEngineConfig{threads, 1}));
      EXPECT_EQ(agent.action_distribution(obs, forecast, 7), expected);
    }
  }
}

}  // namespace
}  // namespace verihvac::core
