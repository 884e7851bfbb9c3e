#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>

#include "core_test_utils.hpp"

namespace verihvac::core {
namespace {

/// Toy assets shared across scenarios: the campaign layer's own logic
/// (grid enumeration, per-scenario seeding, aggregation, determinism) is
/// independent of how expensive the assets were to produce.
class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto history = testutil::toy_history(1500, 12);
    dyn::DynamicsModelConfig cfg;
    cfg.hidden = {16};
    cfg.trainer.epochs = 80;
    cfg.trainer.adam.learning_rate = 3e-3;
    auto model = std::make_shared<dyn::DynamicsModel>(cfg);
    model->train(history);

    const control::ActionSpace actions;
    const std::size_t hold = actions.nearest_index(sim::SetpointPair{22.0, 23.0});
    const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    DecisionDataset data;
    for (int i = 0; i < 40; ++i) {
      const double temp = 14.0 + 0.3 * i;
      data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 11.0}, hold});
      data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 0.0}, setback});
    }

    assets_ = new ScenarioAssets;
    assets_->policy = std::make_shared<const DtPolicy>(DtPolicy::fit(data, actions));
    assets_->model = model;
    assets_->sampler = std::make_shared<AugmentedSampler>(history.policy_inputs(), 0.01);
  }
  static void TearDownTestSuite() {
    delete assets_;
    assets_ = nullptr;
  }

  /// 3 climates × 2 buildings = 6 certified (climate × building) scenarios.
  static CampaignConfig six_scenario_config() {
    CampaignConfig config;
    config.climates = {"Pittsburgh", "Tucson", "NewYork"};
    config.buildings = {{"baseline", 1.0}, {"oversized", 2.0}};
    config.comfort_bands = {{"winter", env::winter_comfort()}};
    config.envelopes = {{"mild", mild_envelope(config.schema)}};
    config.probabilistic_samples = 120;
    config.reach_states = 8;
    config.reach_horizon = 8;
    return config;
  }

  static AssetProvider toy_provider() {
    return [](const CampaignScenario&) { return *assets_; };
  }

  static VerificationEngine engine_with_threads(std::size_t threads) {
    return VerificationEngine(std::make_shared<const common::TaskPool>(
        common::TaskPoolConfig{threads, /*min_parallel_batch=*/1}));
  }

  static ScenarioAssets* assets_;
};

ScenarioAssets* CampaignTest::assets_ = nullptr;

TEST_F(CampaignTest, EnumeratesTheFullGridInDeterministicOrder) {
  const auto scenarios = enumerate_scenarios(six_scenario_config());
  ASSERT_EQ(scenarios.size(), 6u);
  EXPECT_EQ(scenarios.front().key(), "Pittsburgh/baseline/winter/mild");
  EXPECT_EQ(scenarios[1].key(), "Pittsburgh/oversized/winter/mild");
  EXPECT_EQ(scenarios.back().key(), "NewYork/oversized/winter/mild");
  for (std::size_t i = 0; i < scenarios.size(); ++i) EXPECT_EQ(scenarios[i].index, i);
}

TEST_F(CampaignTest, EmptyGridAxisThrows) {
  CampaignConfig config = six_scenario_config();
  config.climates.clear();
  EXPECT_THROW(enumerate_scenarios(config), std::invalid_argument);
}

TEST_F(CampaignTest, EnvelopeNarrowerThanSchemaThrowsBeforeAnyAsset) {
  // The default envelopes are boxes over the default (baseline) schema; a
  // config that swaps in the time-aware schema without restating them
  // fails at enumeration, before the provider pays for an extraction.
  CampaignConfig config;
  config.schema = env::time_aware_schema();
  config.climates = {"Pittsburgh"};
  config.buildings = {{"baseline", 1.0}};
  EXPECT_THROW(enumerate_scenarios(config), std::invalid_argument);
  std::size_t provider_calls = 0;
  const AssetProvider counting = [&](const CampaignScenario&) {
    ++provider_calls;
    return *assets_;
  };
  EXPECT_THROW(run_campaign(config, engine_with_threads(1), counting), std::invalid_argument);
  EXPECT_EQ(provider_calls, 0u);

  config.envelopes = {{"mild", mild_envelope(config.schema)}};
  const auto scenarios = enumerate_scenarios(config);
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios.front().envelope.bounds.size(), config.schema.dims());
}

TEST_F(CampaignTest, CertifiesSixScenariosInOneInvocation) {
  const auto result =
      run_campaign(six_scenario_config(), engine_with_threads(4), toy_provider());
  ASSERT_EQ(result.rows.size(), 6u);
  for (const CampaignRow& row : result.rows) {
    EXPECT_EQ(row.probabilistic.samples, 120u);
    EXPECT_GE(row.interval.certified_fraction(), 0.0);
    EXPECT_LE(row.interval.certified_fraction(), 1.0);
    EXPECT_EQ(row.tubes, 8u);
    EXPECT_LE(row.tubes_within, row.tubes);
    EXPECT_GE(row.violation_rate(), 0.0);
    EXPECT_LE(row.violation_rate(), 1.0);
  }
  // The table carries one line per scenario plus header/title furniture.
  const std::string table = result.to_table();
  for (const CampaignRow& row : result.rows) {
    EXPECT_NE(table.find(row.scenario.key()), std::string::npos);
  }
}

TEST_F(CampaignTest, TableByteIdenticalAcrossThreadCounts) {
  // The full aggregated artifact — table and CSV — must be byte-identical
  // for VERI_HVAC_THREADS=1 vs 8 pools (mirrors rollout_engine_test).
  const CampaignConfig config = six_scenario_config();
  const auto serial = run_campaign(config, engine_with_threads(1), toy_provider());
  const auto parallel = run_campaign(config, engine_with_threads(8), toy_provider());
  EXPECT_EQ(serial.to_table(), parallel.to_table());
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

TEST_F(CampaignTest, ScenarioSeedsAreIndexStableNotOrderStable) {
  // Dropping a grid axis entry must not change the numbers of scenarios
  // that keep their (climate, building) identity and index-local seed —
  // scenario draws derive from (root seed, index), so the *first* scenario
  // is unchanged when later ones are removed.
  CampaignConfig full = six_scenario_config();
  CampaignConfig reduced = six_scenario_config();
  reduced.climates = {"Pittsburgh"};
  const auto full_run = run_campaign(full, engine_with_threads(4), toy_provider());
  const auto reduced_run = run_campaign(reduced, engine_with_threads(4), toy_provider());
  ASSERT_EQ(reduced_run.rows.size(), 2u);
  EXPECT_EQ(full_run.rows[0].probabilistic.failures,
            reduced_run.rows[0].probabilistic.failures);
  EXPECT_EQ(full_run.rows[1].probabilistic.failures,
            reduced_run.rows[1].probabilistic.failures);
}

TEST_F(CampaignTest, SkippedReachabilityDoesNotClaimTubeCertification) {
  CampaignConfig config = six_scenario_config();
  config.climates = {"Pittsburgh"};
  config.buildings = {{"baseline", 1.0}};
  config.reach_states = 0;  // reachability skipped
  const auto result = run_campaign(config, engine_with_threads(1), toy_provider());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows.front().tubes, 0u);
  EXPECT_TRUE(std::isnan(result.rows.front().tube_within_fraction()));
}

TEST_F(CampaignTest, IncompleteAssetsThrow) {
  CampaignConfig config = six_scenario_config();
  const auto broken = [](const CampaignScenario&) { return ScenarioAssets{}; };
  EXPECT_THROW(run_campaign(config, engine_with_threads(1), broken), std::invalid_argument);
}

TEST_F(CampaignTest, CsvHasHeaderPlusOneLinePerScenario) {
  const auto result =
      run_campaign(six_scenario_config(), engine_with_threads(4), toy_provider());
  const std::string csv = result.to_csv();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + result.rows.size());
  EXPECT_EQ(csv.rfind("scenario,leaves_subject,", 0), 0u);
}

/// End-to-end: the default provider extracts real pipeline artifacts.
/// Scaled down hard via the VERI_HVAC_* knobs; labeled `slow` in CMake.
TEST_F(CampaignTest, PipelineAssetProviderExtractsAndCaches) {
  setenv("VERI_HVAC_COLLECT_EPISODES", "1", 1);
  setenv("VERI_HVAC_EPOCHS", "15", 1);
  setenv("VERI_HVAC_DECISION_POINTS", "60", 1);
  setenv("VERI_HVAC_MC_REPEATS", "2", 1);
  setenv("VERI_HVAC_RS_SAMPLES", "32", 1);
  setenv("VERI_HVAC_RS_HORIZON", "5", 1);
  setenv("VERI_HVAC_VERIFY_SAMPLES", "100", 1);

  CampaignConfig config;
  config.climates = {"Pittsburgh"};
  config.buildings = {{"baseline", 1.0}};
  // Two envelope variants over one extraction: the provider must hit its
  // cache for the second scenario. (The comfort band stays winter — the
  // winter-collected historical distribution has no occupied summer-band
  // states for the Monte-Carlo sampler to accept.)
  config.comfort_bands = {{"winter", env::winter_comfort()}};
  config.envelopes = {{"mild", mild_envelope(config.schema)}, {"design", config.schema.envelope()}};
  config.probabilistic_samples = 60;
  config.reach_states = 4;
  config.reach_horizon = 6;

  const AssetProvider provider = pipeline_asset_provider(config);
  const auto scenarios = enumerate_scenarios(config);
  ASSERT_EQ(scenarios.size(), 2u);
  const ScenarioAssets first = provider(scenarios[0]);
  const ScenarioAssets second = provider(scenarios[1]);
  ASSERT_TRUE(first.policy && first.model && first.sampler);
  // Same (climate × building) -> cached artifacts, not a second pipeline.
  EXPECT_EQ(first.policy.get(), second.policy.get());
  EXPECT_EQ(first.model.get(), second.model.get());

  const auto result = run_campaign(config, engine_with_threads(4), provider);
  EXPECT_EQ(result.rows.size(), 2u);

  unsetenv("VERI_HVAC_COLLECT_EPISODES");
  unsetenv("VERI_HVAC_EPOCHS");
  unsetenv("VERI_HVAC_DECISION_POINTS");
  unsetenv("VERI_HVAC_MC_REPEATS");
  unsetenv("VERI_HVAC_RS_SAMPLES");
  unsetenv("VERI_HVAC_RS_HORIZON");
  unsetenv("VERI_HVAC_VERIFY_SAMPLES");
}

}  // namespace
}  // namespace verihvac::core
