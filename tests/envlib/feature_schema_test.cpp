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

TEST(FeatureSchemaTest, BaselineMatchesLegacyLayoutBitwise) {
  const Observation obs = sample_observation();
  const auto legacy = obs.to_vector();
  const auto schema = baseline_schema().to_vector(obs);
  ASSERT_EQ(schema.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    // Bitwise, not approximate: baseline certificates depend on the schema
    // path copying the exact same stored doubles as the legacy flatten.
    EXPECT_EQ(schema[i], legacy[i]) << "dim " << i;
  }
}

TEST(FeatureSchemaTest, BaselineNamesMatchLegacyNames) {
  const auto& legacy = input_dim_names();
  const auto names = baseline_schema().feature_names();
  ASSERT_EQ(names.size(), legacy.size());
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(names[i], legacy[i]);
}

TEST(FeatureSchemaTest, RoleLookup) {
  const FeatureSchema& base = baseline_schema();
  EXPECT_EQ(base.dims(), kInputDims);
  EXPECT_EQ(base.zone_temp_index(), 0u);
  EXPECT_EQ(base.occupancy_index(), 5u);
  EXPECT_EQ(base.index_of(FeatureRole::kZoneTemp), 0u);
  EXPECT_FALSE(base.has_role(FeatureRole::kHourSin));
  EXPECT_THROW(base.index_of(FeatureRole::kHourSin), std::invalid_argument);

  const FeatureSchema& aware = time_aware_schema();
  EXPECT_EQ(aware.dims(), 9u);
  // The first six dims are the baseline layout, extended — not reordered.
  for (std::size_t i = 0; i < kInputDims; ++i) {
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
