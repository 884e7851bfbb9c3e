#include "core/reachability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/core_test_utils.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::core {
namespace {

using env::FeatureRole;
using env::testing::dim;
using testutil::toy_history;
using testutil::toy_model;

class ReachabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = toy_history(1200, 3);
    model_ = toy_model(history_);

    control::ActionSpace actions;
    DecisionDataset data;
    Rng rng(4);
    const std::size_t hold = actions.nearest_index(sim::SetpointPair{21.0, 23.0});
    const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    for (int i = 0; i < 300; ++i) {
      std::vector<double> x = {rng.uniform(16.0, 26.0), rng.uniform(-5.0, 10.0), 60.0, 3.0,
                               0.0, rng.bernoulli(0.5) ? 11.0 : 0.0};
      const std::size_t label = x[dim(FeatureRole::kOccupancy)] > 0.5 ? hold : setback;
      data.records.push_back({std::move(x), label});
    }
    policy_ = std::make_unique<DtPolicy>(DtPolicy::fit(data, actions));
  }

  dyn::TransitionDataset history_;
  std::shared_ptr<dyn::DynamicsModel> model_;
  std::unique_ptr<DtPolicy> policy_;
  dyn::PredictScratch scratch_;
};

TEST_F(ReachabilityTest, TubeHasHorizonPlusOneStates) {
  const std::vector<double> x0 = {21.0, 0.0, 60.0, 3.0, 0.0, 11.0};
  const ReachabilityResult result = reach_tube(*policy_, *model_, x0, {}, 10, scratch_);
  EXPECT_EQ(result.zone_temps.size(), 11u);
  EXPECT_DOUBLE_EQ(result.zone_temps.front(), 21.0);
}

TEST_F(ReachabilityTest, MinMaxEnvelopeIsConsistent) {
  const std::vector<double> x0 = {21.0, 0.0, 60.0, 3.0, 0.0, 11.0};
  const ReachabilityResult result = reach_tube(*policy_, *model_, x0, {}, 16, scratch_);
  for (double t : result.zone_temps) {
    EXPECT_GE(t, result.min_temp);
    EXPECT_LE(t, result.max_temp);
  }
}

TEST_F(ReachabilityTest, OccupiedComfortStartStaysNearComfort) {
  // A comfort-holding policy from a mid-comfort occupied start should not
  // leave a generous band over 5 hours.
  const std::vector<double> x0 = {21.5, 0.0, 60.0, 3.0, 0.0, 11.0};
  ReachabilityResult result = reach_tube(*policy_, *model_, x0, {}, 20, scratch_);
  check_within(result, 19.0, 24.5);
  EXPECT_TRUE(result.within) << "[" << result.min_temp << ", " << result.max_temp << "]";
}

TEST_F(ReachabilityTest, UnoccupiedStartDriftsDown) {
  // Setback + cold outdoors: the tube should sink (building cools).
  const std::vector<double> x0 = {21.0, -5.0, 60.0, 3.0, 0.0, 0.0};
  const ReachabilityResult result = reach_tube(*policy_, *model_, x0, {}, 20, scratch_);
  EXPECT_LT(result.zone_temps.back(), 21.0);
}

TEST_F(ReachabilityTest, DisturbanceSequenceIsApplied) {
  const std::vector<double> x0 = {21.0, 0.0, 60.0, 3.0, 0.0, 11.0};
  env::Disturbance warm;
  warm.weather.outdoor_temp_c = 15.0;
  warm.occupants = 11.0;
  env::Disturbance cold;
  cold.weather.outdoor_temp_c = -15.0;
  cold.occupants = 11.0;
  const auto warm_tube =
      reach_tube(*policy_, *model_, x0, std::vector<env::Disturbance>(20, warm), 20, scratch_);
  const auto cold_tube =
      reach_tube(*policy_, *model_, x0, std::vector<env::Disturbance>(20, cold), 20, scratch_);
  EXPECT_GT(warm_tube.zone_temps.back(), cold_tube.zone_temps.back());
}

TEST_F(ReachabilityTest, FirstTransitionUsesFirstDisturbanceEntry) {
  // Contract: disturbances[k] are the exogenous inputs at step k+1 and
  // drive the k-th transition. Two sequences differing ONLY in entry 0
  // must therefore already diverge at zone_temps[1]; the pre-fix loop
  // applied d[0] after the first prediction, so the tubes agreed at step 1
  // (both transitions wrongly used x0's persisted disturbances).
  const std::vector<double> x0 = {21.0, 0.0, 60.0, 3.0, 0.0, 11.0};
  env::Disturbance base;
  base.weather.outdoor_temp_c = 0.0;
  base.weather.humidity_pct = 60.0;
  base.weather.wind_mps = 3.0;
  base.occupants = 11.0;
  std::vector<env::Disturbance> warm_first(10, base);
  std::vector<env::Disturbance> cold_first(10, base);
  warm_first[0].weather.outdoor_temp_c = 15.0;
  cold_first[0].weather.outdoor_temp_c = -15.0;
  const auto warm = reach_tube(*policy_, *model_, x0, warm_first, 10, scratch_);
  const auto cold = reach_tube(*policy_, *model_, x0, cold_first, 10, scratch_);
  EXPECT_GT(warm.zone_temps[1], cold.zone_temps[1]);
}

TEST_F(ReachabilityTest, LastDisturbanceEntryDrivesFinalTransition) {
  // The final entry disturbances[horizon-1] must not be dropped: sequences
  // differing only there diverge at the last state.
  const std::vector<double> x0 = {21.0, 0.0, 60.0, 3.0, 0.0, 11.0};
  env::Disturbance base;
  base.weather.outdoor_temp_c = 0.0;
  base.weather.humidity_pct = 60.0;
  base.weather.wind_mps = 3.0;
  base.occupants = 11.0;
  std::vector<env::Disturbance> warm_last(10, base);
  std::vector<env::Disturbance> cold_last(10, base);
  warm_last.back().weather.outdoor_temp_c = 15.0;
  cold_last.back().weather.outdoor_temp_c = -15.0;
  const auto warm = reach_tube(*policy_, *model_, x0, warm_last, 10, scratch_);
  const auto cold = reach_tube(*policy_, *model_, x0, cold_last, 10, scratch_);
  for (std::size_t k = 0; k + 1 < warm.zone_temps.size(); ++k) {
    EXPECT_DOUBLE_EQ(warm.zone_temps[k], cold.zone_temps[k]) << "step " << k;
  }
  EXPECT_GT(warm.zone_temps.back(), cold.zone_temps.back());
}

TEST_F(ReachabilityTest, NanStateMakesTubeUnsafe) {
  // A diverging model produces NaN zone temperatures; NaN slips through
  // min_element/max_element ordering, so the envelope must poison instead.
  std::vector<double> x0 = {std::numeric_limits<double>::quiet_NaN(), 0.0, 60.0, 3.0,
                            0.0, 11.0};
  ReachabilityResult result = reach_tube(*policy_, *model_, x0, {}, 5, scratch_);
  EXPECT_TRUE(std::isnan(result.min_temp));
  EXPECT_TRUE(std::isnan(result.max_temp));
  check_within(result, -1000.0, 1000.0);  // any finite band
  EXPECT_FALSE(result.within);
}

TEST_F(ReachabilityTest, CheckWithinRejectsNanEvenWithFiniteEnvelope) {
  // Manually assembled result whose envelope fields hide the NaN state:
  // check_within must still report the tube unsafe.
  ReachabilityResult r;
  r.zone_temps = {21.0, std::numeric_limits<double>::quiet_NaN(), 21.5};
  r.min_temp = 21.0;
  r.max_temp = 21.5;
  check_within(r, 20.0, 23.5);
  EXPECT_FALSE(r.within);
}

TEST_F(ReachabilityTest, ShortDisturbanceSequenceExtends) {
  const std::vector<double> x0 = {21.0, 0.0, 60.0, 3.0, 0.0, 11.0};
  env::Disturbance d;
  d.weather.outdoor_temp_c = 5.0;
  d.occupants = 11.0;
  EXPECT_NO_THROW(reach_tube(*policy_, *model_, x0, {d}, 10, scratch_));
}

TEST_F(ReachabilityTest, WrongInputDimensionThrows) {
  EXPECT_THROW(reach_tube(*policy_, *model_, {1.0, 2.0}, {}, 5, scratch_), std::invalid_argument);
}

TEST_F(ReachabilityTest, CheckWithinFlagsBothSides) {
  ReachabilityResult r;
  r.zone_temps = {20.0, 21.0};
  r.min_temp = 20.0;
  r.max_temp = 21.0;
  check_within(r, 20.0, 23.5);
  EXPECT_TRUE(r.within);
  check_within(r, 20.5, 23.5);
  EXPECT_FALSE(r.within);
  check_within(r, 19.0, 20.5);
  EXPECT_FALSE(r.within);
}

}  // namespace
}  // namespace verihvac::core
