#include "envlib/feature_schema.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace verihvac::env {
namespace {

Observation sample_observation() {
  Observation obs;
  obs.zone_temp_c = 21.5;
  obs.weather.outdoor_temp_c = -3.0;
  obs.weather.humidity_pct = 65.0;
  obs.weather.wind_mps = 4.5;
  obs.weather.solar_wm2 = 120.0;
  obs.occupants = 11.0;
  obs.step = 30;  // 7:30
  obs.hour_of_day = 7.5;
  const auto [s, c] = time_of_day_encoding(obs.step);
  obs.hour_sin = s;
  obs.hour_cos = c;
  obs.occupants_ahead = 9.0;
  return obs;
}

TEST(FeatureSchemaTest, RoleLookup) {
  const FeatureSchema& base = baseline_schema();
  EXPECT_EQ(base.dims(), 6u);
  EXPECT_EQ(base.zone_temp_index(), 0u);
  EXPECT_EQ(base.occupancy_index(), 5u);
  EXPECT_EQ(base.index_of(FeatureRole::kZoneTemp), 0u);
  EXPECT_FALSE(base.has_role(FeatureRole::kHourSin));
  EXPECT_THROW(base.index_of(FeatureRole::kHourSin), std::invalid_argument);

  const FeatureSchema& aware = time_aware_schema();
  EXPECT_EQ(aware.dims(), 9u);
  // The first six dims are the baseline layout, extended — not reordered.
  for (std::size_t i = 0; i < base.dims(); ++i) {
    EXPECT_EQ(aware.at(i).name, base.at(i).name) << "dim " << i;
  }
  EXPECT_EQ(aware.zone_temp_index(), 0u);
  EXPECT_EQ(aware.occupancy_index(), 5u);
  EXPECT_EQ(aware.index_of(FeatureRole::kHourSin), 6u);
  EXPECT_EQ(aware.index_of(FeatureRole::kHourCos), 7u);
  EXPECT_EQ(aware.index_of(FeatureRole::kOccupancyForecast), 8u);
}

TEST(FeatureSchemaTest, BaselineEnvelopeIsTheDesignClimate) {
  // The schema's bounds scope every interval certificate: pin the design
  // climate they state. The zone temperature stays unbounded (certification
  // clips it to the comfort range instead).
  const FeatureSchema& base = baseline_schema();
  const Box envelope = base.envelope();
  ASSERT_EQ(envelope.size(), base.dims());
  const auto expect_bounds = [&](FeatureRole role, double lo, double hi) {
    const Interval& iv = envelope[base.index_of(role)];
    EXPECT_EQ(iv.lo, lo) << feature_role_name(role);
    EXPECT_EQ(iv.hi, hi) << feature_role_name(role);
  };
  const double inf = std::numeric_limits<double>::infinity();
  expect_bounds(FeatureRole::kZoneTemp, -inf, inf);
  expect_bounds(FeatureRole::kOutdoorTemp, -25.0, 45.0);  // degC
  expect_bounds(FeatureRole::kHumidity, 0.0, 100.0);      // %
  expect_bounds(FeatureRole::kWind, 0.0, 25.0);           // m/s
  expect_bounds(FeatureRole::kSolar, 0.0, 1100.0);        // W/m^2
  expect_bounds(FeatureRole::kOccupancy, 0.0, 40.0);      // people
}

TEST(FeatureSchemaTest, ExactlyOneStateDimension) {
  for (const char* name : {"baseline", "time-aware"}) {
    const FeatureSchema& schema = schema_by_name(name);
    std::size_t states = 0;
    for (const FeatureSpec& f : schema.features()) {
      if (f.kind == FeatureKind::kState) ++states;
    }
    EXPECT_EQ(states, 1u) << name;
    EXPECT_EQ(schema.at(schema.zone_temp_index()).kind, FeatureKind::kState) << name;
  }
}

TEST(FeatureSchemaTest, TimeAwareToVectorCarriesTemporalFields) {
  const Observation obs = sample_observation();
  const auto x = time_aware_schema().to_vector(obs);
  ASSERT_EQ(x.size(), 9u);
  EXPECT_EQ(x[6], obs.hour_sin);
  EXPECT_EQ(x[7], obs.hour_cos);
  EXPECT_EQ(x[8], obs.occupants_ahead);
}

TEST(FeatureSchemaTest, ToObservationRoundTrip) {
  const Observation obs = sample_observation();
  for (const char* name : {"baseline", "time-aware"}) {
    const FeatureSchema& schema = schema_by_name(name);
    const auto x = schema.to_vector(obs);
    const Observation back = schema.to_observation(x);
    // Whatever the schema encodes must re-flatten bit-identically.
    EXPECT_EQ(schema.to_vector(back), x) << name;
  }
  // The time-aware round trip restores the stored temporal fields exactly.
  const Observation back = time_aware_schema().to_observation(time_aware_schema().to_vector(obs));
  EXPECT_EQ(back.hour_sin, obs.hour_sin);
  EXPECT_EQ(back.hour_cos, obs.hour_cos);
  EXPECT_EQ(back.occupants_ahead, obs.occupants_ahead);
  EXPECT_THROW(baseline_schema().to_observation({1.0, 2.0}), std::invalid_argument);
}

TEST(FeatureSchemaTest, ApplyDisturbanceMatchesLegacyOrder) {
  Disturbance d;
  d.weather.outdoor_temp_c = -7.0;
  d.weather.humidity_pct = 80.0;
  d.weather.wind_mps = 6.0;
  d.weather.solar_wm2 = 0.0;
  d.occupants = 3.0;
  const auto [s, c] = time_of_day_encoding(70);
  d.hour_sin = s;
  d.hour_cos = c;
  d.occupants_ahead = 11.0;

  double row[6] = {19.0, 0, 0, 0, 0, 0};
  baseline_schema().apply_disturbance(d, row);
  EXPECT_EQ(row[0], 19.0);  // state dim untouched
  EXPECT_EQ(row[1], d.weather.outdoor_temp_c);
  EXPECT_EQ(row[2], d.weather.humidity_pct);
  EXPECT_EQ(row[3], d.weather.wind_mps);
  EXPECT_EQ(row[4], d.weather.solar_wm2);
  EXPECT_EQ(row[5], d.occupants);

  double wide[9] = {19.0, 0, 0, 0, 0, 0, 0, 0, 0};
  time_aware_schema().apply_disturbance(d, wide);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(wide[i], row[i]) << "dim " << i;
  EXPECT_EQ(wide[6], d.hour_sin);
  EXPECT_EQ(wide[7], d.hour_cos);
  EXPECT_EQ(wide[8], d.occupants_ahead);

  // to_disturbance is the inverse on the non-state dims.
  const Disturbance back = time_aware_schema().to_disturbance(wide);
  double again[9] = {19.0, 0, 0, 0, 0, 0, 0, 0, 0};
  time_aware_schema().apply_disturbance(back, again);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(again[i], wide[i]) << "dim " << i;
}

TEST(FeatureSchemaTest, FlattenAndRebuildAreLocked) {
  // Literal expectations for both presets, so the role-to-field mapping
  // is pinned by value rather than by comparison with another flatten.
  Observation obs;
  obs.zone_temp_c = 21.5;
  obs.weather.outdoor_temp_c = -3.25;
  obs.weather.humidity_pct = 65.5;
  obs.weather.wind_mps = 4.75;
  obs.weather.solar_wm2 = 120.0;
  obs.occupants = 11.0;
  obs.step = 30;
  obs.hour_of_day = 7.5;
  obs.hour_sin = 0.375;
  obs.hour_cos = -0.875;
  obs.occupants_ahead = 9.0;
  EXPECT_EQ(baseline_schema().to_vector(obs),
            (std::vector<double>{21.5, -3.25, 65.5, 4.75, 120.0, 11.0}));
  EXPECT_EQ(time_aware_schema().to_vector(obs),
            (std::vector<double>{21.5, -3.25, 65.5, 4.75, 120.0, 11.0, 0.375, -0.875, 9.0}));

  Disturbance d;
  d.weather.outdoor_temp_c = -7.5;
  d.weather.humidity_pct = 80.25;
  d.weather.wind_mps = 6.125;
  d.weather.solar_wm2 = 310.0;
  d.occupants = 3.0;
  d.hour_sin = -0.25;
  d.hour_cos = 0.5;
  d.occupants_ahead = 12.0;
  double row[9] = {19.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  baseline_schema().apply_disturbance(d, row);
  EXPECT_EQ(std::vector<double>(row, row + 9),
            (std::vector<double>{19.0, -7.5, 80.25, 6.125, 310.0, 3.0, 0.0, 0.0, 0.0}));
  time_aware_schema().apply_disturbance(d, row);
  EXPECT_EQ(std::vector<double>(row, row + 9),
            (std::vector<double>{19.0, -7.5, 80.25, 6.125, 310.0, 3.0, -0.25, 0.5, 12.0}));

  const std::vector<double> x = {18.5, 2.5, 40.0, 1.25, 55.0, 6.0, 1.0, 0.0, 4.0};
  const Observation base = baseline_schema().to_observation({x.begin(), x.begin() + 6});
  EXPECT_EQ(base.zone_temp_c, 18.5);
  EXPECT_EQ(base.weather.outdoor_temp_c, 2.5);
  EXPECT_EQ(base.weather.humidity_pct, 40.0);
  EXPECT_EQ(base.weather.wind_mps, 1.25);
  EXPECT_EQ(base.weather.solar_wm2, 55.0);
  EXPECT_EQ(base.occupants, 6.0);
  EXPECT_EQ(base.step, 0u);  // no schema encodes the step
  EXPECT_EQ(base.hour_of_day, 0.0);
  EXPECT_EQ(base.hour_sin, 0.0);
  EXPECT_EQ(base.hour_cos, 1.0);
  EXPECT_EQ(base.occupants_ahead, 0.0);
  const Observation aware = time_aware_schema().to_observation(x);
  EXPECT_EQ(aware.zone_temp_c, 18.5);
  EXPECT_EQ(aware.weather.outdoor_temp_c, 2.5);
  EXPECT_EQ(aware.weather.humidity_pct, 40.0);
  EXPECT_EQ(aware.weather.wind_mps, 1.25);
  EXPECT_EQ(aware.weather.solar_wm2, 55.0);
  EXPECT_EQ(aware.occupants, 6.0);
  EXPECT_EQ(aware.step, 0u);
  EXPECT_DOUBLE_EQ(aware.hour_of_day, 6.0);  // atan2(1, 0): a quarter day
  EXPECT_EQ(aware.hour_sin, 1.0);
  EXPECT_EQ(aware.hour_cos, 0.0);
  EXPECT_EQ(aware.occupants_ahead, 4.0);

  const Disturbance base_d = baseline_schema().to_disturbance(x.data());
  EXPECT_EQ(base_d.weather.outdoor_temp_c, 2.5);
  EXPECT_EQ(base_d.weather.humidity_pct, 40.0);
  EXPECT_EQ(base_d.weather.wind_mps, 1.25);
  EXPECT_EQ(base_d.weather.solar_wm2, 55.0);
  EXPECT_EQ(base_d.occupants, 6.0);
  EXPECT_EQ(base_d.hour_sin, 0.0);
  EXPECT_EQ(base_d.hour_cos, 1.0);
  EXPECT_EQ(base_d.occupants_ahead, 0.0);
  const Disturbance aware_d = time_aware_schema().to_disturbance(x.data());
  EXPECT_EQ(aware_d.weather.outdoor_temp_c, 2.5);
  EXPECT_EQ(aware_d.weather.humidity_pct, 40.0);
  EXPECT_EQ(aware_d.weather.wind_mps, 1.25);
  EXPECT_EQ(aware_d.weather.solar_wm2, 55.0);
  EXPECT_EQ(aware_d.occupants, 6.0);
  EXPECT_EQ(aware_d.hour_sin, 1.0);
  EXPECT_EQ(aware_d.hour_cos, 0.0);
  EXPECT_EQ(aware_d.occupants_ahead, 4.0);
}

TEST(FeatureSchemaTest, RegistryLookup) {
  EXPECT_EQ(schema_by_name("baseline"), baseline_schema());
  EXPECT_EQ(schema_by_name("time-aware"), time_aware_schema());
  EXPECT_NE(baseline_schema(), time_aware_schema());
  EXPECT_EQ(find_schema("no-such-schema"), nullptr);
  EXPECT_THROW(schema_by_name("no-such-schema"), std::invalid_argument);
  const auto names = schema_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "baseline");
  EXPECT_EQ(names[1], "time-aware");
}

TEST(FeatureSchemaTest, RoleAndKindNamesRoundTrip) {
  for (const FeatureRole role :
       {FeatureRole::kZoneTemp, FeatureRole::kOutdoorTemp, FeatureRole::kHumidity,
        FeatureRole::kWind, FeatureRole::kSolar, FeatureRole::kOccupancy, FeatureRole::kHourSin,
        FeatureRole::kHourCos, FeatureRole::kOccupancyForecast}) {
    EXPECT_EQ(feature_role_from_name(feature_role_name(role)), role);
  }
  for (const FeatureKind kind :
       {FeatureKind::kState, FeatureKind::kDisturbance, FeatureKind::kTemporal}) {
    EXPECT_EQ(feature_kind_from_name(feature_kind_name(kind)), kind);
  }
  EXPECT_THROW(feature_role_from_name("bogus"), std::invalid_argument);
  EXPECT_THROW(feature_kind_from_name("bogus"), std::invalid_argument);
}

TEST(FeatureSchemaTest, ConstructorRejectsInvalidLayouts) {
  auto spec = [](const char* name, FeatureKind kind, FeatureRole role) {
    FeatureSpec f;
    f.name = name;
    f.unit = "1";
    f.kind = kind;
    f.role = role;
    return f;
  };
  // No state dimension.
  EXPECT_THROW(FeatureSchema("bad", {spec("a", FeatureKind::kDisturbance, FeatureRole::kWind)}),
               std::invalid_argument);
  // Duplicate roles.
  EXPECT_THROW(FeatureSchema("bad", {spec("a", FeatureKind::kState, FeatureRole::kZoneTemp),
                                     spec("b", FeatureKind::kDisturbance, FeatureRole::kZoneTemp)}),
               std::invalid_argument);
  // Two state dimensions.
  EXPECT_THROW(FeatureSchema("bad", {spec("a", FeatureKind::kState, FeatureRole::kZoneTemp),
                                     spec("b", FeatureKind::kState, FeatureRole::kOutdoorTemp)}),
               std::invalid_argument);
}

TEST(FeatureSchemaTest, TimeOfDayEncodingWrapsDaily) {
  const auto [s0, c0] = time_of_day_encoding(0);
  EXPECT_DOUBLE_EQ(s0, 0.0);
  EXPECT_DOUBLE_EQ(c0, 1.0);
  // 6:00 (a quarter day at 15-minute steps) is a quarter turn.
  const auto [s6, c6] = time_of_day_encoding(24);
  EXPECT_NEAR(s6, 1.0, 1e-12);
  EXPECT_NEAR(c6, 0.0, 1e-12);
  // Wraps bit-identically at the day boundary.
  const auto a = time_of_day_encoding(7);
  const auto b = time_of_day_encoding(7 + 96);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace verihvac::env
