#include "dynamics/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "envlib/baseline_layout.hpp"

namespace verihvac::dyn {
namespace {

using env::FeatureRole;
using env::testing::baseline_dims;
using env::testing::dim;

env::EnvConfig tiny_env() {
  env::EnvConfig cfg;
  cfg.days = 1;
  cfg.weather_seed = 5;
  return cfg;
}

Transition make_transition(double zone_temp, double heat, double cool, double next) {
  Transition t;
  t.input = {zone_temp, 0.0, 50.0, 3.0, 100.0, 5.0};
  t.action = sim::SetpointPair{heat, cool};
  t.next_zone_temp = next;
  return t;
}

TEST(DatasetTest, MatricesHaveModelLayout) {
  TransitionDataset data;
  data.add(make_transition(20.0, 21.0, 24.0, 20.5));
  data.add(make_transition(22.0, 15.0, 30.0, 21.4));
  const Matrix x = data.inputs();
  ASSERT_EQ(x.rows(), 2u);
  ASSERT_EQ(x.cols(), data.model_input_dims());
  EXPECT_DOUBLE_EQ(x(0, dim(FeatureRole::kZoneTemp)), 20.0);
  EXPECT_DOUBLE_EQ(x(0, data.heat_index()), 21.0);
  EXPECT_DOUBLE_EQ(x(0, data.cool_index()), 24.0);
  const Matrix y = data.targets();
  EXPECT_DOUBLE_EQ(y(1, 0), 21.4);
  const Matrix p = data.policy_inputs();
  EXPECT_EQ(p.cols(), baseline_dims());
  EXPECT_DOUBLE_EQ(p(1, dim(FeatureRole::kZoneTemp)), 22.0);
}

TEST(DatasetTest, AppendConcatenates) {
  TransitionDataset a;
  a.add(make_transition(20.0, 21.0, 24.0, 20.5));
  TransitionDataset b;
  b.add(make_transition(21.0, 22.0, 25.0, 21.5));
  b.add(make_transition(22.0, 23.0, 26.0, 22.5));
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.at(2).next_zone_temp, 22.5);
}

TEST(CollectionTest, CollectsOneTransitionPerStep) {
  CollectionConfig cc;
  cc.episodes = 1;
  const TransitionDataset data = collect_historical_data(tiny_env(), cc);
  EXPECT_EQ(data.size(), static_cast<std::size_t>(96));
}

TEST(CollectionTest, MultipleEpisodesConcatenate) {
  CollectionConfig cc;
  cc.episodes = 2;
  const TransitionDataset data = collect_historical_data(tiny_env(), cc);
  EXPECT_EQ(data.size(), static_cast<std::size_t>(2 * 96));
}

TEST(CollectionTest, DeterministicForSameSeed) {
  CollectionConfig cc;
  cc.episodes = 1;
  cc.seed = 33;
  const TransitionDataset a = collect_historical_data(tiny_env(), cc);
  const TransitionDataset b = collect_historical_data(tiny_env(), cc);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.at(i).next_zone_temp, b.at(i).next_zone_temp);
    EXPECT_DOUBLE_EQ(a.at(i).action.heating_c, b.at(i).action.heating_c);
  }
}

TEST(CollectionTest, ExplorationVisitsDiverseActions) {
  CollectionConfig cc;
  cc.episodes = 2;
  cc.exploration_rate = 1.0;
  const TransitionDataset data = collect_historical_data(tiny_env(), cc);
  std::set<double> heats;
  for (std::size_t i = 0; i < data.size(); ++i) heats.insert(data.at(i).action.heating_c);
  EXPECT_GT(heats.size(), 5u);
}

TEST(CollectionTest, ActionsAreAlwaysValidPairs) {
  CollectionConfig cc;
  cc.episodes = 1;
  cc.exploration_rate = 1.0;
  const TransitionDataset data = collect_historical_data(tiny_env(), cc);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& a = data.at(i).action;
    EXPECT_GE(a.heating_c, 15.0);
    EXPECT_LE(a.heating_c, 23.0);
    EXPECT_GE(a.cooling_c, 21.0);
    EXPECT_LE(a.cooling_c, 30.0);
    EXPECT_LE(a.heating_c, a.cooling_c);
  }
}

TEST(CollectionTest, TransitionsChainConsistently) {
  // next_zone_temp of step i equals zone temp of step i+1 within an episode.
  CollectionConfig cc;
  cc.episodes = 1;
  const TransitionDataset data = collect_historical_data(tiny_env(), cc);
  for (std::size_t i = 0; i + 1 < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(data.at(i).next_zone_temp, data.at(i + 1).input[dim(FeatureRole::kZoneTemp)]);
  }
}

}  // namespace
}  // namespace verihvac::dyn
