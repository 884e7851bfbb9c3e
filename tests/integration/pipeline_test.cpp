// Integration tests for the end-to-end extraction pipeline, run at a tiny
// scale so the suite stays fast: the point is wiring, invariants and
// determinism, not model quality (the benches measure that).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/fnv1a.hpp"
#include "core/policy_io.hpp"

namespace verihvac::core {
namespace {

PipelineConfig tiny_config(const std::string& city) {
  PipelineConfig cfg = PipelineConfig::for_city(city);
  cfg.env.days = 3;
  cfg.collection.episodes = 1;
  cfg.model.hidden = {16, 16};
  cfg.model.trainer.epochs = 25;
  cfg.rs.samples = 24;
  cfg.rs.horizon = 4;
  cfg.decision.mc_repeats = 2;
  cfg.decision_points = 80;
  cfg.probabilistic_samples = 300;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  static const PipelineArtifacts& artifacts() {
    static const PipelineArtifacts instance = run_pipeline(tiny_config("Pittsburgh"));
    return instance;
  }
};

TEST_F(PipelineTest, ProducesAllArtifacts) {
  const auto& a = artifacts();
  EXPECT_GT(a.historical.size(), 0u);
  ASSERT_NE(a.model, nullptr);
  EXPECT_TRUE(a.model->trained());
  EXPECT_EQ(a.decisions.size(), 80u);
  ASSERT_NE(a.policy, nullptr);
  EXPECT_GT(a.policy->tree().node_count(), 1u);
}

TEST_F(PipelineTest, HistoricalSizeMatchesEpisodes) {
  // 1 episode x 3 days x 96 steps.
  EXPECT_EQ(artifacts().historical.size(), static_cast<std::size_t>(3 * 96));
}

TEST_F(PipelineTest, VerifiedPolicyPassesFormalReverification) {
  // The pipeline corrects during verification; re-running must be clean.
  auto policy = artifacts().make_dt_policy();
  const FormalReport report =
      verify_formal(*policy, artifacts().config.criteria, /*correct=*/false);
  EXPECT_TRUE(report.all_pass());
}

TEST_F(PipelineTest, ProbabilisticReportIsPopulated) {
  const auto& p = artifacts().probabilistic;
  EXPECT_EQ(p.samples, 300u);
  EXPECT_GE(p.safe_probability, 0.0);
  EXPECT_LE(p.safe_probability, 1.0);
}

TEST_F(PipelineTest, TreeSizeBookkeepingConsistent) {
  const auto& tree = artifacts().policy->tree();
  EXPECT_EQ(tree.node_count(), 2 * tree.leaf_count() - 1);
  EXPECT_EQ(artifacts().formal.leaves_total, tree.leaf_count());
}

TEST_F(PipelineTest, AgentsAreConstructible) {
  EXPECT_NE(artifacts().make_mbrl_agent(), nullptr);
  EXPECT_NE(artifacts().make_default_controller(), nullptr);
  EXPECT_NE(artifacts().make_dt_policy(), nullptr);
  // No ensemble requested in the tiny config.
  EXPECT_THROW(artifacts().make_clue_agent(), std::logic_error);
}

TEST_F(PipelineTest, RefitWithPrefixReusesDecisions) {
  const PipelineArtifacts smaller = refit_policy(artifacts(), 30);
  EXPECT_EQ(smaller.decisions.size(), 30u);
  // Prefix identity: first 30 records are shared.
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(smaller.decisions.records[i].action_index,
              artifacts().decisions.records[i].action_index);
  }
  ASSERT_NE(smaller.policy, nullptr);
  const FormalReport report =
      verify_formal(*smaller.make_dt_policy(), smaller.config.criteria, false);
  EXPECT_TRUE(report.all_pass());
}

TEST_F(PipelineTest, RefitBeyondBaseGeneratesMore) {
  const PipelineArtifacts bigger = refit_policy(artifacts(), 100);
  EXPECT_EQ(bigger.decisions.size(), 100u);
}

TEST(PipelineGoldenTest, BundleBytesAreLocked) {
  // Bit-identity lock on a whole extraction: FNV-1a 64 over the bytes of
  // the written bundle. Five repeats per point let the modal labelling
  // settle early on most points; the digest was recorded with every point
  // solving all five, so it holds early stopping to the full-R labels.
  // Never re-baseline it to follow a refactor: any label, split or
  // threshold that moves changes these bytes.
  PipelineConfig cfg = tiny_config("Pittsburgh");
  cfg.decision.mc_repeats = 5;
  const PipelineArtifacts artifacts = run_pipeline(cfg);
  std::ostringstream bundle;
  write_policy(*artifacts.policy, bundle);
  const std::uint64_t digest = common::Fnv1a().bytes(bundle.str()).digest();
  EXPECT_EQ(digest, 0x4ab5851f3ebbd87eull) << std::hex << "digest 0x" << digest;
}

TEST(PipelineConfigTest, ForCityResolvesClimates) {
  EXPECT_EQ(PipelineConfig::for_city("Tucson").env.climate.name, "Tucson");
  EXPECT_EQ(PipelineConfig::for_city("Pittsburgh").env.climate.name, "Pittsburgh");
  EXPECT_THROW(PipelineConfig::for_city("Gotham"), std::invalid_argument);
}

TEST(PipelineConfigTest, EnsemblePipelineBuildsClue) {
  PipelineConfig cfg = tiny_config("Tucson");
  cfg.train_ensemble = true;
  cfg.ensemble.members = 2;
  cfg.ensemble.member_config.hidden = {12, 12};
  cfg.ensemble.member_config.trainer.epochs = 10;
  const PipelineArtifacts artifacts = run_pipeline(cfg);
  ASSERT_NE(artifacts.ensemble, nullptr);
  EXPECT_EQ(artifacts.ensemble->member_count(), 2u);
  EXPECT_NE(artifacts.make_clue_agent(), nullptr);
}

}  // namespace
}  // namespace verihvac::core
