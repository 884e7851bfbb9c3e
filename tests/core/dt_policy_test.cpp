#include "core/dt_policy.hpp"

#include <gtest/gtest.h>

#include "core/core_test_utils.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::FeatureRole;
using env::testing::dim;

/// Builds a small decision dataset with a transparent rule:
/// occupied -> h=21/c=24 when cold, h=20/c=23 otherwise; unoccupied -> setback.
DecisionDataset rule_dataset(const control::ActionSpace& actions, std::size_t n,
                             std::uint64_t seed) {
  Rng rng(seed);
  DecisionDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x = {rng.uniform(16.0, 26.0), rng.uniform(-5.0, 10.0),
                             rng.uniform(30.0, 90.0), rng.uniform(0.0, 8.0),
                             rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
    std::size_t label;
    if (x[dim(FeatureRole::kOccupancy)] > 0.5) {
      label = x[dim(FeatureRole::kZoneTemp)] < 21.0
                  ? actions.nearest_index(sim::SetpointPair{21.0, 24.0})
                  : actions.nearest_index(sim::SetpointPair{20.0, 23.0});
    } else {
      label = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    }
    data.records.push_back({std::move(x), label});
  }
  return data;
}

TEST(DtPolicyTest, FitEmptyThrows) {
  EXPECT_THROW(DtPolicy::fit(DecisionDataset{}, control::ActionSpace{}),
               std::invalid_argument);
}

TEST(DtPolicyTest, ReproducesTrainingDecisions) {
  control::ActionSpace actions;
  const DecisionDataset data = rule_dataset(actions, 400, 1);
  const DtPolicy policy = DtPolicy::fit(data, actions);
  for (const auto& record : data.records) {
    EXPECT_EQ(policy.decide_index(record.input), record.action_index);
  }
}

TEST(DtPolicyTest, DecisionsAreDeterministic) {
  // The core claim of the paper: same input -> same output, always (Fig. 5).
  control::ActionSpace actions;
  const DtPolicy policy = DtPolicy::fit(rule_dataset(actions, 300, 2), actions);
  const std::vector<double> x = {19.0, 0.0, 60.0, 3.0, 100.0, 11.0};
  const auto first = policy.decide(x);
  for (int i = 0; i < 100; ++i) {
    const auto again = policy.decide(x);
    EXPECT_DOUBLE_EQ(again.heating_c, first.heating_c);
    EXPECT_DOUBLE_EQ(again.cooling_c, first.cooling_c);
  }
}

TEST(DtPolicyTest, GeneralizesTheOccupancyRule) {
  control::ActionSpace actions;
  const DtPolicy policy = DtPolicy::fit(rule_dataset(actions, 800, 3), actions);
  // Unseen unoccupied input -> setback.
  const auto night = policy.decide({21.0, -3.0, 55.0, 2.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(night.heating_c, 15.0);
  // Unseen occupied cold input -> heating.
  const auto morning = policy.decide({18.0, -3.0, 55.0, 2.0, 0.0, 11.0});
  EXPECT_GE(morning.heating_c, 21.0);
}

TEST(DtPolicyTest, ActIgnoresForecast) {
  control::ActionSpace actions;
  DtPolicy policy = DtPolicy::fit(rule_dataset(actions, 200, 4), actions);
  env::Observation obs;
  obs.zone_temp_c = 22.0;
  obs.occupants = 0.0;
  const auto without = policy.act(obs, {});
  const auto with = policy.act(obs, std::vector<env::Disturbance>(10));
  EXPECT_DOUBLE_EQ(without.heating_c, with.heating_c);
  EXPECT_EQ(policy.forecast_horizon(), 0u);
  EXPECT_EQ(policy.name(), "DT");
}

TEST(DtPolicyTest, ToTextUsesPhysicalNames) {
  control::ActionSpace actions;
  const DtPolicy policy = DtPolicy::fit(rule_dataset(actions, 200, 5), actions);
  const std::string text = policy.to_text();
  EXPECT_NE(text.find("occupants"), std::string::npos);
  EXPECT_NE(text.find("h="), std::string::npos);  // action labels
}

TEST(DtPolicyTest, ConstructorValidatesTree) {
  // A tree over the wrong number of features must be rejected.
  tree::DecisionTreeClassifier wrong;
  wrong.fit({{1.0}, {2.0}}, {0, 1}, 2);
  EXPECT_THROW(DtPolicy(std::move(wrong), control::ActionSpace{}), std::invalid_argument);
}

TEST(DtPolicyTest, CopyIsIndependent) {
  control::ActionSpace actions;
  DtPolicy policy = DtPolicy::fit(rule_dataset(actions, 200, 6), actions);
  DtPolicy copy = policy;
  // Corrupt the copy's tree; original must be unaffected.
  const auto leaves = copy.tree().leaves();
  copy.mutable_tree().set_leaf_label(leaves.front(), 0);
  bool any_difference = false;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {rng.uniform(16.0, 26.0), 0.0, 50.0, 3.0,
                                   100.0,                    rng.bernoulli(0.5) ? 11.0 : 0.0};
    if (policy.decide_index(x) != copy.decide_index(x)) any_difference = true;
  }
  // (The corrupted leaf may or may not be hit; the important part is the
  // original still matches its training data.)
  const DecisionDataset data = rule_dataset(actions, 200, 6);
  for (const auto& r : data.records) {
    EXPECT_EQ(policy.decide_index(r.input), r.action_index);
  }
  (void)any_difference;
}

}  // namespace
}  // namespace verihvac::core
