// Observation schema — the feature layout as data.
//
// A FeatureSchema is an ordered list of feature descriptors (name, unit,
// kind, verification bounds) with a stable *role* lookup, and it is the
// only code that knows which Observation/Disturbance field each role
// reads or writes (one role-to-field map in feature_schema.cpp). Every
// layer that flattens or rebuilds a policy input goes through it: the
// verification criteria (#2/#3) and Algorithm 1 find the zone-temperature
// dimension via `schema.zone_temp_index()`; rollouts advance forecasts via
// `schema.apply_disturbance`; serving and telemetry flatten via
// `write_observation`; policy bundles persist the schema so heterogeneous
// observation shapes coexist in one registry. The per-feature bounds, as
// one box (`envelope()`), scope every interval certificate
// (core/interval_verify).
//
// Invariants:
//  - Exactly one feature has kind kState, and it carries the zone_temp
//    role (the single dimension the dynamics model predicts).
//  - Roles are unique within a schema.
//  - `baseline_schema()` is Table 1's 6-dim (s, d) layout; the time-aware
//    preset extends it without reordering. Flattening copies the stored
//    doubles unchanged, so decisions, certificates and trace replay are
//    bit-exact functions of the records.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/interval.hpp"
#include "envlib/observation.hpp"

namespace verihvac::env {

/// What a feature *is*, for layers that treat the kinds differently:
/// state is predicted by the dynamics model, disturbances come from the
/// forecast, temporal features are derived from the clock/schedule (and
/// also advance with the forecast during rollouts).
enum class FeatureKind : std::uint8_t {
  kState = 0,
  kDisturbance = 1,
  kTemporal = 2,
};

/// Stable semantic identity of a feature, independent of its position.
/// Role values are persisted in policy bundles (policy_io v2) — never
/// renumber, only append.
enum class FeatureRole : std::uint8_t {
  kZoneTemp = 0,
  kOutdoorTemp = 1,
  kHumidity = 2,
  kWind = 3,
  kSolar = 4,
  kOccupancy = 5,
  kHourSin = 6,
  kHourCos = 7,
  kOccupancyForecast = 8,
};

const char* feature_kind_name(FeatureKind kind);
const char* feature_role_name(FeatureRole role);
/// Inverse lookups (for bundle/trace parsing); throw std::invalid_argument
/// on unknown names.
FeatureKind feature_kind_from_name(const std::string& name);
FeatureRole feature_role_from_name(const std::string& name);

/// One observation dimension.
struct FeatureSpec {
  std::string name;
  std::string unit;
  FeatureKind kind = FeatureKind::kDisturbance;
  FeatureRole role = FeatureRole::kZoneTemp;
  /// Certificate envelope for this dimension: interval certification
  /// clips every leaf box to it (IBP over an unbounded box is vacuous).
  Interval bounds = Interval::all();
};

/// Ordered feature layout with role lookup. Cheap to copy; compared by
/// value (name + per-feature specs).
class FeatureSchema {
 public:
  FeatureSchema() = default;
  FeatureSchema(std::string name, std::vector<FeatureSpec> features);

  const std::string& name() const { return name_; }
  std::size_t dims() const { return features_.size(); }
  const FeatureSpec& at(std::size_t i) const { return features_.at(i); }
  const std::vector<FeatureSpec>& features() const { return features_; }
  /// Per-dimension names (for tree dumps / verification reports).
  std::vector<std::string> feature_names() const;
  /// The per-feature bounds as one box: the certificate envelope.
  Box envelope() const;

  bool has_role(FeatureRole role) const;
  /// Index of the dimension carrying `role`; throws std::invalid_argument
  /// if the schema has no such feature.
  std::size_t index_of(FeatureRole role) const;
  /// The single kState dimension (cached — this is on the decision hot
  /// path).
  std::size_t zone_temp_index() const { return zone_temp_index_; }
  /// The current-occupancy dimension (cached; every preset carries it —
  /// the occupied/unoccupied split is load-bearing for the criteria).
  std::size_t occupancy_index() const { return occupancy_index_; }

  /// Flattens an observation to this schema's layout.
  std::vector<double> to_vector(const Observation& obs) const;
  /// Writes the flattened observation into row[0..dims()-1].
  void write_observation(const Observation& obs, double* row) const;
  /// Value of a single feature of the observation.
  double feature_value(const Observation& obs, std::size_t i) const;
  /// Rebuilds an observation from a flattened vector. Temporal roles are
  /// restored into their stored fields; `hour_of_day` is additionally
  /// reconstructed from (hour_sin, hour_cos) when both are present
  /// (atan2-based — for logging, not for bit-exact re-flattening; the
  /// stored sin/cos fields round-trip exactly). `step` is not encoded in
  /// any schema and stays 0.
  Observation to_observation(const std::vector<double>& x) const;

  /// Overwrites the non-state dimensions of a model-input row with the
  /// forecast disturbance (rollout advance); the state dimension is left
  /// as it is.
  void apply_disturbance(const Disturbance& d, double* row) const;
  /// Value the forecast carries for feature i (state dims return 0).
  double disturbance_value(const Disturbance& d, std::size_t i) const;
  /// Rebuilds a forecast record from the non-state dimensions of a
  /// flattened row (inverse of apply_disturbance; used to continue
  /// historical disturbance trajectories).
  Disturbance to_disturbance(const double* row) const;

  bool operator==(const FeatureSchema& other) const;
  bool operator!=(const FeatureSchema& other) const { return !(*this == other); }

 private:
  std::string name_;
  std::vector<FeatureSpec> features_;
  std::size_t zone_temp_index_ = 0;
  std::size_t occupancy_index_ = 0;
};

/// The 6-dim Table-1 layout (Zone Temp, Outdoor Temp, Humidity, Wind,
/// Solar, Occupancy): the paper's policy input (s, d).
const FeatureSchema& baseline_schema();

/// Baseline + hour-of-day (sin/cos) + occupancy-forecast: the time-aware
/// preset that makes 7am distinguishable from 3am, unlocking preheat
/// (see bench/preheat.cpp).
const FeatureSchema& time_aware_schema();

/// Preset registry: returns nullptr for unknown names.
const FeatureSchema* find_schema(const std::string& name);
/// Preset registry: throws std::invalid_argument for unknown names.
const FeatureSchema& schema_by_name(const std::string& name);
/// Names of the registered presets, in registration order.
std::vector<std::string> schema_names();

}  // namespace verihvac::env
