#include "core/verification.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/core_test_utils.hpp"
#include "core/verification_engine.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::FeatureRole;
using env::testing::baseline_dims;
using env::testing::dim;
using testutil::toy_history;
using testutil::toy_model;

/// Decision dataset engineered so the fitted tree contains specific
/// criterion violations:
///  * occupied & too warm (s > 23.5) labeled with cooling setpoint 30
///    (refuses to cool)  -> violates #2
///  * occupied & too cold (s < 20) labeled with heating setpoint 15
///    (refuses to heat)  -> violates #3
///  * unoccupied anything -> setback (exempt: criteria guard occupied hours)
///  * occupied & comfortable -> sensible comfort action
DecisionDataset adversarial_dataset(const control::ActionSpace& actions, std::size_t n,
                                    std::uint64_t seed) {
  Rng rng(seed);
  DecisionDataset data;
  const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
  const std::size_t comfort = actions.nearest_index(sim::SetpointPair{21.0, 23.0});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x = {rng.uniform(15.0, 28.0), rng.uniform(-5.0, 10.0),
                             rng.uniform(30.0, 90.0), rng.uniform(0.0, 8.0),
                             rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
    std::size_t label;
    if (x[dim(FeatureRole::kOccupancy)] <= 0.5) {
      label = setback;
    } else if (x[dim(FeatureRole::kZoneTemp)] > 23.5 || x[dim(FeatureRole::kZoneTemp)] < 20.0) {
      label = setback;  // the engineered fault: ignore the violation
    } else {
      label = comfort;
    }
    data.records.push_back({std::move(x), label});
  }
  return data;
}

VerificationCriteria winter_criteria() {
  VerificationCriteria c;
  c.comfort = env::winter_comfort();
  c.safe_probability_threshold = 0.8;
  c.horizon = 8;
  return c;
}

TEST(CorrectionActionTest, IsComfortMedianAndSatisfiesBothCriteria) {
  control::ActionSpace actions;
  const std::size_t idx = correction_action(actions, env::winter_comfort());
  const auto action = actions.action(idx);
  // Median of [20, 23.5] is 21.75; nearest integer pair is (22, 22).
  EXPECT_DOUBLE_EQ(action.heating_c, 22.0);
  EXPECT_DOUBLE_EQ(action.cooling_c, 22.0);
  // #2: cooling below z_hi; #3: heating above z_lo.
  EXPECT_LE(action.cooling_c, 23.5);
  EXPECT_GE(action.heating_c, 20.0);
}

TEST(FormalVerificationTest, DetectsEngineeredViolations) {
  control::ActionSpace actions;
  DtPolicy policy = DtPolicy::fit(adversarial_dataset(actions, 600, 1), actions);
  const FormalReport report = verify_formal(policy, winter_criteria(), /*correct=*/false);
  EXPECT_GT(report.violations_crit2, 0u);
  EXPECT_GT(report.violations_crit3, 0u);
  EXPECT_FALSE(report.all_pass());
  EXPECT_EQ(report.corrected_crit2 + report.corrected_crit3, 0u);  // no correction asked
  EXPECT_EQ(report.leaves_total, policy.tree().leaf_count());
}

TEST(FormalVerificationTest, CorrectionFixesAllViolations) {
  control::ActionSpace actions;
  DtPolicy policy = DtPolicy::fit(adversarial_dataset(actions, 600, 2), actions);
  const FormalReport first = verify_formal(policy, winter_criteria(), /*correct=*/true);
  EXPECT_GT(first.corrected_crit2 + first.corrected_crit3, 0u);
  // Re-verification must now pass: this is the paper's deployment gate.
  const FormalReport second = verify_formal(policy, winter_criteria(), /*correct=*/false);
  EXPECT_TRUE(second.all_pass());
}

TEST(FormalVerificationTest, CorrectedPolicyHeatsWhenColdOccupied) {
  control::ActionSpace actions;
  DtPolicy policy = DtPolicy::fit(adversarial_dataset(actions, 600, 3), actions);
  verify_formal(policy, winter_criteria(), /*correct=*/true);
  // A deep-cold occupied input must now receive a heating setpoint above
  // the zone temperature (criterion #3 semantics).
  for (double s : {16.0, 18.0, 19.5}) {
    const auto action = policy.decide({s, -3.0, 60.0, 3.0, 50.0, 11.0});
    EXPECT_GT(action.heating_c, s) << "zone temp " << s;
  }
}

TEST(FormalVerificationTest, CorrectedPolicyCoolsWhenWarmOccupied) {
  control::ActionSpace actions;
  DtPolicy policy = DtPolicy::fit(adversarial_dataset(actions, 600, 4), actions);
  verify_formal(policy, winter_criteria(), /*correct=*/true);
  for (double s : {24.0, 26.0, 27.5}) {
    const auto action = policy.decide({s, 5.0, 60.0, 3.0, 200.0, 11.0});
    EXPECT_LT(action.cooling_c, s) << "zone temp " << s;
  }
}

TEST(FormalVerificationTest, UnoccupiedLeavesAreExempt) {
  // A policy that only ever sees unoccupied data may set back freely; the
  // criteria guard occupied hours (§3.1).
  control::ActionSpace actions;
  DecisionDataset data;
  Rng rng(5);
  const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
  for (int i = 0; i < 200; ++i) {
    data.records.push_back(
        {{rng.uniform(14.0, 30.0), 0.0, 50.0, 3.0, 0.0, 0.0}, setback});
  }
  DtPolicy policy = DtPolicy::fit(data, actions);
  const FormalReport report = verify_formal(policy, winter_criteria(), true);
  // Tree is a single always-setback leaf with an occupancy-unsplit box; it
  // intersects occupied space, so it IS subject — but if the dataset had an
  // occupancy split the unoccupied side would be exempt. Verify on a policy
  // with the split:
  DecisionDataset mixed = data;
  const std::size_t comfort = actions.nearest_index(sim::SetpointPair{21.0, 23.0});
  for (int i = 0; i < 200; ++i) {
    mixed.records.push_back(
        {{rng.uniform(20.0, 23.4), 0.0, 50.0, 3.0, 0.0, 11.0}, comfort});
  }
  DtPolicy split_policy = DtPolicy::fit(mixed, actions);
  const FormalReport split_report =
      verify_formal(split_policy, winter_criteria(), false);
  // The unoccupied-setback leaf must not be flagged.
  for (const auto& finding : split_report.findings) {
    const Box box = split_policy.tree().leaf_box(finding.leaf);
    EXPECT_GT(box[dim(FeatureRole::kOccupancy)].hi, 0.5);
  }
  (void)report;
}

TEST(FormalVerificationTest, CleanPolicyPassesWithoutCorrections) {
  // A policy that always answers with the comfort-median action is
  // verifiable by construction.
  control::ActionSpace actions;
  DecisionDataset data;
  Rng rng(6);
  const std::size_t median = correction_action(actions, env::winter_comfort());
  for (int i = 0; i < 100; ++i) {
    data.records.push_back(
        {{rng.uniform(14.0, 30.0), rng.uniform(-5.0, 10.0), 50.0, 3.0, 0.0,
          rng.bernoulli(0.5) ? 11.0 : 0.0},
         median});
  }
  DtPolicy policy = DtPolicy::fit(data, actions);
  const FormalReport report = verify_formal(policy, winter_criteria(), true);
  EXPECT_TRUE(report.all_pass());
  EXPECT_EQ(report.corrected_crit2 + report.corrected_crit3, 0u);
}

class ProbabilisticVerificationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = toy_history(1500, 7);
    model_ = toy_model(history_);
  }

  /// A conservative policy trained to hold comfort — should be mostly safe.
  DtPolicy safe_policy() {
    control::ActionSpace actions;
    DecisionDataset data;
    Rng rng(8);
    const std::size_t hold = actions.nearest_index(sim::SetpointPair{21.0, 23.0});
    const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    for (int i = 0; i < 400; ++i) {
      std::vector<double> x = {rng.uniform(18.0, 25.0), rng.uniform(-5.0, 10.0),
                               60.0,                    3.0,
                               rng.uniform(0.0, 300.0), rng.bernoulli(0.6) ? 11.0 : 0.0};
      const std::size_t label = x[dim(FeatureRole::kOccupancy)] > 0.5 ? hold : setback;
      data.records.push_back({std::move(x), label});
    }
    return DtPolicy::fit(data, control::ActionSpace{});
  }

  /// A reckless policy that always sets back — should fail often from
  /// near-boundary safe states.
  DtPolicy reckless_policy() {
    control::ActionSpace actions;
    DecisionDataset data;
    Rng rng(9);
    const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    for (int i = 0; i < 200; ++i) {
      data.records.push_back({{rng.uniform(14.0, 30.0), rng.uniform(-5.0, 10.0), 60.0, 3.0,
                               0.0, rng.bernoulli(0.5) ? 11.0 : 0.0},
                              setback});
    }
    return DtPolicy::fit(data, control::ActionSpace{});
  }

  dyn::TransitionDataset history_;
  std::shared_ptr<dyn::DynamicsModel> model_;
};

TEST_F(ProbabilisticVerificationTest, SafePolicyScoresHigh) {
  const DtPolicy policy = safe_policy();
  AugmentedSampler sampler(history_.policy_inputs(), 0.01);
  const ProbabilisticReport report = VerificationEngine().verify_probabilistic(
      policy, *model_, sampler, winter_criteria(), 1500, 10);
  EXPECT_EQ(report.samples, 1500u);
  EXPECT_GT(report.safe_probability, 0.85);
  EXPECT_TRUE(report.passes(winter_criteria()));
}

TEST_F(ProbabilisticVerificationTest, RecklessPolicyScoresLower) {
  AugmentedSampler sampler(history_.policy_inputs(), 0.01);
  const VerificationEngine engine;
  const auto safe = engine.verify_probabilistic(safe_policy(), *model_, sampler,
                                                winter_criteria(), 1200, 11);
  const auto reckless = engine.verify_probabilistic(reckless_policy(), *model_, sampler,
                                                    winter_criteria(), 1200, 11);
  EXPECT_LT(reckless.safe_probability, safe.safe_probability);
}

TEST_F(ProbabilisticVerificationTest, OneStepEquivalentToHStepBootstrap) {
  // The §3.3.2 proof: the one-step estimator converges to the same failure
  // ratio as classifying every visited state of H-step bootstrap rollouts.
  const DtPolicy policy = safe_policy();
  AugmentedSampler sampler(history_.policy_inputs(), 0.01);
  const auto one = VerificationEngine().verify_probabilistic(policy, *model_, sampler,
                                                             winter_criteria(), 4000, 12);
  Rng rng(13);
  const auto h = verify_probabilistic_h_step(policy, *model_, sampler, winter_criteria(),
                                             4000, rng);
  EXPECT_EQ(h.samples, 4000u);
  EXPECT_NEAR(one.safe_probability, h.safe_probability, 0.08);
}

TEST_F(ProbabilisticVerificationTest, ReportIsDeterministicGivenSeed) {
  const DtPolicy policy = safe_policy();
  AugmentedSampler sampler(history_.policy_inputs(), 0.01);
  const VerificationEngine engine;
  const auto r1 = engine.verify_probabilistic(policy, *model_, sampler, winter_criteria(), 500, 14);
  const auto r2 = engine.verify_probabilistic(policy, *model_, sampler, winter_criteria(), 500, 14);
  EXPECT_DOUBLE_EQ(r1.safe_probability, r2.safe_probability);
  EXPECT_EQ(r1.failures, r2.failures);
}

TEST_F(ProbabilisticVerificationTest, DegenerateHistoryThrowsInsteadOfHanging) {
  // Occupancy alternates 1,0,1,0,... and ends unoccupied, every zone
  // temperature in comfort: each safe occupied row is followed by an
  // unoccupied one, so no state ever has an occupied continuation and
  // neither estimator can count a sample.
  Matrix history(20, baseline_dims());
  for (std::size_t r = 0; r < history.rows(); ++r) {
    history(r, dim(FeatureRole::kZoneTemp)) = 21.5;
    history(r, dim(FeatureRole::kOutdoorTemp)) = 0.0;
    history(r, dim(FeatureRole::kHumidity)) = 50.0;
    history(r, dim(FeatureRole::kWind)) = 3.0;
    history(r, dim(FeatureRole::kOccupancy)) = r % 2 == 0 ? 11.0 : 0.0;
  }
  const AugmentedSampler sampler(history, 0.01);
  const DtPolicy policy = safe_policy();
  Rng one_rng(15);
  EXPECT_THROW(verify_probabilistic_one_step(policy, *model_, sampler, winter_criteria(), 50,
                                             one_rng),
               std::runtime_error);
  Rng h_rng(15);
  EXPECT_THROW(verify_probabilistic_h_step(policy, *model_, sampler, winter_criteria(), 50, h_rng),
               std::runtime_error);
}

TEST_F(ProbabilisticVerificationTest, PassesThresholdSemantics) {
  ProbabilisticReport report;
  report.safe_probability = 0.95;
  VerificationCriteria c;
  c.safe_probability_threshold = 0.9;
  EXPECT_TRUE(report.passes(c));
  c.safe_probability_threshold = 0.99;
  EXPECT_FALSE(report.passes(c));
}

}  // namespace
}  // namespace verihvac::core
