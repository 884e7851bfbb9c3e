#include "envlib/observation.hpp"

#include <gtest/gtest.h>

#include "envlib/baseline_layout.hpp"

namespace verihvac::env {
namespace {

using testing::dim;
using testing::flatten;

TEST(ObservationTest, VectorLayoutMatchesTable1) {
  Observation obs;
  obs.zone_temp_c = 21.5;
  obs.weather.outdoor_temp_c = -3.0;
  obs.weather.humidity_pct = 65.0;
  obs.weather.wind_mps = 4.5;
  obs.weather.solar_wm2 = 120.0;
  obs.occupants = 11.0;
  const auto x = flatten(obs);
  ASSERT_EQ(x.size(), 6u);
  EXPECT_DOUBLE_EQ(x[dim(FeatureRole::kZoneTemp)], 21.5);
  EXPECT_DOUBLE_EQ(x[dim(FeatureRole::kOutdoorTemp)], -3.0);
  EXPECT_DOUBLE_EQ(x[dim(FeatureRole::kHumidity)], 65.0);
  EXPECT_DOUBLE_EQ(x[dim(FeatureRole::kWind)], 4.5);
  EXPECT_DOUBLE_EQ(x[dim(FeatureRole::kSolar)], 120.0);
  EXPECT_DOUBLE_EQ(x[dim(FeatureRole::kOccupancy)], 11.0);
}

TEST(ObservationTest, ZoneTempIsDimensionZero) {
  // Table 1 puts the state s first: (s, d).
  EXPECT_EQ(dim(FeatureRole::kZoneTemp), 0u);
  EXPECT_EQ(baseline_schema().zone_temp_index(), 0u);
}

TEST(ObservationTest, DimNamesAreUniqueAndComplete) {
  const auto names = baseline_schema().feature_names();
  EXPECT_EQ(names, (std::vector<std::string>{"zone_temp_c", "outdoor_temp_c", "humidity_pct",
                                             "wind_mps", "solar_wm2", "occupants"}));
  for (const FeatureSchema* schema : {&baseline_schema(), &time_aware_schema()}) {
    const auto all = schema->feature_names();
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_FALSE(all[i].empty());
      for (std::size_t j = i + 1; j < all.size(); ++j) EXPECT_NE(all[i], all[j]);
    }
  }
}

}  // namespace
}  // namespace verihvac::env
