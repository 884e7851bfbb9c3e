// Interpretability reports: explanations, feature importance, summaries.
#include <gtest/gtest.h>

#include "core/interpret.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::FeatureRole;
using env::testing::baseline_dims;
using env::testing::dim;

/// Policy whose only relevant features are zone temp (dim 0) and
/// occupancy (dim 5): occupied -> hold 21/23, unoccupied -> setback.
DtPolicy simple_policy() {
  const control::ActionSpace actions;
  const std::size_t hold = actions.nearest_index(sim::SetpointPair{21.0, 23.0});
  const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
  DecisionDataset data;
  for (int i = 0; i < 30; ++i) {
    const double temp = 16.0 + 0.3 * i;
    data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 11.0}, hold});
    data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 0.0}, setback});
  }
  return DtPolicy::fit(data, actions);
}

TEST(InterpretTest, ExplainReproducesTheDecision) {
  const DtPolicy policy = simple_policy();
  const std::vector<double> x = {21.0, -3.0, 60.0, 4.0, 0.0, 11.0};
  const Explanation explanation = explain(policy, x);
  const sim::SetpointPair direct = policy.decide(x);
  EXPECT_DOUBLE_EQ(explanation.action.heating_c, direct.heating_c);
  EXPECT_DOUBLE_EQ(explanation.action.cooling_c, direct.cooling_c);
}

TEST(InterpretTest, ExplanationStepsMatchTheInput) {
  const DtPolicy policy = simple_policy();
  const std::vector<double> x = {21.0, -3.0, 60.0, 4.0, 0.0, 0.0};
  const Explanation explanation = explain(policy, x);
  ASSERT_FALSE(explanation.steps.empty());
  for (const auto& step : explanation.steps) {
    // Each recorded comparison must be true of the input itself.
    if (step.went_left) {
      EXPECT_LE(step.value, step.threshold);
    } else {
      EXPECT_GT(step.value, step.threshold);
    }
  }
}

TEST(InterpretTest, ExplanationRendersPhysicalNames) {
  const DtPolicy policy = simple_policy();
  const Explanation explanation =
      explain(policy, {21.0, -3.0, 60.0, 4.0, 0.0, 11.0});
  const std::string text = explanation.to_string();
  EXPECT_NE(text.find("decision: heating"), std::string::npos);
  // The only informative split is occupancy, rendered with its physical
  // schema feature name rather than a bare x[5].
  EXPECT_NE(text.find("occupants"), std::string::npos);
  EXPECT_EQ(text.find("x[5]"), std::string::npos);
}

TEST(InterpretTest, CorrectedLeafIsFlagged) {
  const DtPolicy policy = simple_policy();
  const std::vector<double> x = {21.0, -3.0, 60.0, 4.0, 0.0, 11.0};
  const int leaf = policy.tree().decision_leaf(x);
  const Explanation plain = explain(policy, x);
  EXPECT_FALSE(plain.corrected);
  const Explanation flagged = explain(policy, x, {leaf});
  EXPECT_TRUE(flagged.corrected);
}

TEST(InterpretTest, FeatureImportanceConcentratesOnOccupancy) {
  const DtPolicy policy = simple_policy();
  const std::vector<double> importance = feature_importance(policy);
  ASSERT_EQ(importance.size(), baseline_dims());
  // Occupancy is the only label-relevant dimension in this dataset.
  const std::size_t occupancy = dim(FeatureRole::kOccupancy);
  for (std::size_t d = 0; d < importance.size(); ++d) {
    if (d == occupancy) continue;
    EXPECT_GE(importance[occupancy], importance[d]);
  }
  double sum = 0.0;
  for (double v : importance) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(InterpretTest, SingleLeafPolicyHasZeroImportance) {
  const control::ActionSpace actions;
  DecisionDataset data;
  for (int i = 0; i < 10; ++i) {
    data.records.push_back({{20.0 + i, 0.0, 50.0, 3.0, 0.0, 0.0}, 0});
  }
  const DtPolicy policy = DtPolicy::fit(data, actions);
  const std::vector<double> importance = feature_importance(policy);
  for (double v : importance) EXPECT_DOUBLE_EQ(v, 0.0);
  const Explanation explanation = explain(policy, {20.0, 0.0, 50.0, 3.0, 0.0, 0.0});
  EXPECT_TRUE(explanation.steps.empty());
}

TEST(InterpretTest, PolicySummaryCountsLeavesAndSamples) {
  const DtPolicy policy = simple_policy();
  const std::vector<ActionCoverage> coverage = policy_summary(policy);
  std::size_t total_leaves = 0;
  std::size_t total_samples = 0;
  for (const auto& entry : coverage) {
    total_leaves += entry.leaves;
    total_samples += entry.samples;
  }
  EXPECT_EQ(total_leaves, policy.tree().leaf_count());
  EXPECT_EQ(total_samples, 60u);  // every training record lands in a leaf
}

TEST(InterpretTest, ReportsAreNonEmptyAndMentionActions) {
  const DtPolicy policy = simple_policy();
  EXPECT_NE(feature_importance_report(policy).find("importance"), std::string::npos);
  const std::string summary = policy_summary_report(policy);
  EXPECT_NE(summary.find("heat 15"), std::string::npos);
  EXPECT_NE(summary.find("heat 21"), std::string::npos);
}

}  // namespace
}  // namespace verihvac::core
