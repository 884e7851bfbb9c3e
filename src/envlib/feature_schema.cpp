#include "envlib/feature_schema.hpp"

#include <cmath>
#include <stdexcept>

namespace verihvac::env {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

FeatureSpec spec(std::string name, std::string unit, FeatureKind kind, FeatureRole role,
                 Interval bounds) {
  FeatureSpec s;
  s.name = std::move(name);
  s.unit = std::move(unit);
  s.kind = kind;
  s.role = role;
  s.bounds = bounds;
  return s;
}

/// The one role-to-field map, for both record types: Observation and
/// Disturbance name their eight forecastable fields alike, and only an
/// Observation has the zone temperature (a Disturbance yields nullptr).
/// `Record` may be const-qualified; the pointer follows its constness.
template <typename Record>
auto field(Record& r, FeatureRole role) -> decltype(&r.occupants) {
  switch (role) {
    case FeatureRole::kZoneTemp:
      if constexpr (requires { r.zone_temp_c; }) {
        return &r.zone_temp_c;
      } else {
        return nullptr;  // state: not part of the forecast
      }
    case FeatureRole::kOutdoorTemp:
      return &r.weather.outdoor_temp_c;
    case FeatureRole::kHumidity:
      return &r.weather.humidity_pct;
    case FeatureRole::kWind:
      return &r.weather.wind_mps;
    case FeatureRole::kSolar:
      return &r.weather.solar_wm2;
    case FeatureRole::kOccupancy:
      return &r.occupants;
    case FeatureRole::kHourSin:
      return &r.hour_sin;
    case FeatureRole::kHourCos:
      return &r.hour_cos;
    case FeatureRole::kOccupancyForecast:
      return &r.occupants_ahead;
  }
  return nullptr;
}

}  // namespace

const char* feature_kind_name(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::kState:
      return "state";
    case FeatureKind::kDisturbance:
      return "disturbance";
    case FeatureKind::kTemporal:
      return "temporal";
  }
  return "unknown";
}

const char* feature_role_name(FeatureRole role) {
  switch (role) {
    case FeatureRole::kZoneTemp:
      return "zone_temp";
    case FeatureRole::kOutdoorTemp:
      return "outdoor_temp";
    case FeatureRole::kHumidity:
      return "humidity";
    case FeatureRole::kWind:
      return "wind";
    case FeatureRole::kSolar:
      return "solar";
    case FeatureRole::kOccupancy:
      return "occupancy";
    case FeatureRole::kHourSin:
      return "hour_sin";
    case FeatureRole::kHourCos:
      return "hour_cos";
    case FeatureRole::kOccupancyForecast:
      return "occupancy_forecast";
  }
  return "unknown";
}

FeatureKind feature_kind_from_name(const std::string& name) {
  for (FeatureKind kind :
       {FeatureKind::kState, FeatureKind::kDisturbance, FeatureKind::kTemporal}) {
    if (name == feature_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown feature kind '" + name + "'");
}

FeatureRole feature_role_from_name(const std::string& name) {
  for (FeatureRole role :
       {FeatureRole::kZoneTemp, FeatureRole::kOutdoorTemp, FeatureRole::kHumidity,
        FeatureRole::kWind, FeatureRole::kSolar, FeatureRole::kOccupancy,
        FeatureRole::kHourSin, FeatureRole::kHourCos, FeatureRole::kOccupancyForecast}) {
    if (name == feature_role_name(role)) return role;
  }
  throw std::invalid_argument("unknown feature role '" + name + "'");
}

FeatureSchema::FeatureSchema(std::string name, std::vector<FeatureSpec> features)
    : name_(std::move(name)), features_(std::move(features)) {
  if (features_.empty()) {
    throw std::invalid_argument("FeatureSchema '" + name_ + "': no features");
  }
  std::size_t state_dims = 0;
  bool has_occupancy = false;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    for (std::size_t j = i + 1; j < features_.size(); ++j) {
      if (features_[i].role == features_[j].role) {
        throw std::invalid_argument("FeatureSchema '" + name_ + "': duplicate role " +
                                    feature_role_name(features_[i].role));
      }
    }
    if (features_[i].kind == FeatureKind::kState) {
      zone_temp_index_ = i;
      ++state_dims;
    }
    if (features_[i].role == FeatureRole::kOccupancy) {
      occupancy_index_ = i;
      has_occupancy = true;
    }
  }
  if (state_dims != 1) {
    throw std::invalid_argument("FeatureSchema '" + name_ +
                                "': exactly one state (zone-temperature) feature required");
  }
  if (features_[zone_temp_index_].role != FeatureRole::kZoneTemp) {
    throw std::invalid_argument("FeatureSchema '" + name_ +
                                "': the state feature must carry the zone_temp role");
  }
  if (!has_occupancy) {
    throw std::invalid_argument("FeatureSchema '" + name_ +
                                "': an occupancy feature is required (the criteria gate on "
                                "the occupied/unoccupied split)");
  }
}

std::vector<std::string> FeatureSchema::feature_names() const {
  std::vector<std::string> names;
  names.reserve(features_.size());
  for (const FeatureSpec& f : features_) names.push_back(f.name);
  return names;
}

Box FeatureSchema::envelope() const {
  Box box(features_.size());
  for (std::size_t i = 0; i < features_.size(); ++i) box[i] = features_[i].bounds;
  return box;
}

bool FeatureSchema::has_role(FeatureRole role) const {
  for (const FeatureSpec& f : features_) {
    if (f.role == role) return true;
  }
  return false;
}

std::size_t FeatureSchema::index_of(FeatureRole role) const {
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].role == role) return i;
  }
  throw std::invalid_argument("FeatureSchema '" + name_ + "': no feature with role " +
                              feature_role_name(role));
}

double FeatureSchema::feature_value(const Observation& obs, std::size_t i) const {
  return *field(obs, features_.at(i).role);
}

void FeatureSchema::write_observation(const Observation& obs, double* row) const {
  for (std::size_t i = 0; i < features_.size(); ++i) {
    row[i] = *field(obs, features_[i].role);
  }
}

std::vector<double> FeatureSchema::to_vector(const Observation& obs) const {
  std::vector<double> x(features_.size());
  write_observation(obs, x.data());
  return x;
}

Observation FeatureSchema::to_observation(const std::vector<double>& x) const {
  if (x.size() != features_.size()) {
    throw std::invalid_argument("FeatureSchema '" + name_ + "'::to_observation: expected " +
                                std::to_string(features_.size()) + " dims, got " +
                                std::to_string(x.size()));
  }
  Observation obs;
  for (std::size_t i = 0; i < features_.size(); ++i) *field(obs, features_[i].role) = x[i];
  // Reconstructed clock for logging; the stored sin/cos above are what
  // round-trips bit-exactly.
  if (has_role(FeatureRole::kHourSin) && has_role(FeatureRole::kHourCos)) {
    double angle = std::atan2(obs.hour_sin, obs.hour_cos);
    if (angle < 0.0) angle += kTwoPi;
    obs.hour_of_day = angle * 24.0 / kTwoPi;
  }
  return obs;
}

double FeatureSchema::disturbance_value(const Disturbance& d, std::size_t i) const {
  const double* value = field(d, features_.at(i).role);
  return value != nullptr ? *value : 0.0;
}

Disturbance FeatureSchema::to_disturbance(const double* row) const {
  Disturbance d;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (double* value = field(d, features_[i].role)) *value = row[i];
  }
  return d;
}

void FeatureSchema::apply_disturbance(const Disturbance& d, double* row) const {
  // The constructor ties the one kState feature to the zone-temperature
  // role, so every other role has a forecast field.
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].kind == FeatureKind::kState) continue;
    row[i] = *field(d, features_[i].role);
  }
}

bool FeatureSchema::operator==(const FeatureSchema& other) const {
  if (name_ != other.name_ || features_.size() != other.features_.size()) return false;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    const FeatureSpec& a = features_[i];
    const FeatureSpec& b = other.features_[i];
    if (a.name != b.name || a.unit != b.unit || a.kind != b.kind || a.role != b.role ||
        a.bounds.lo != b.bounds.lo || a.bounds.hi != b.bounds.hi) {
      return false;
    }
  }
  return true;
}

const FeatureSchema& baseline_schema() {
  // The bounds are the design climate envelope every interval certificate
  // is scoped to (envelope()); the zone temperature stays unbounded because
  // certification clips it to the comfort range.
  static const FeatureSchema schema(
      "baseline",
      {
          spec("zone_temp_c", "degC", FeatureKind::kState, FeatureRole::kZoneTemp,
               Interval::all()),
          spec("outdoor_temp_c", "degC", FeatureKind::kDisturbance, FeatureRole::kOutdoorTemp,
               Interval::bounded(-25.0, 45.0)),
          spec("humidity_pct", "%", FeatureKind::kDisturbance, FeatureRole::kHumidity,
               Interval::bounded(0.0, 100.0)),
          spec("wind_mps", "m/s", FeatureKind::kDisturbance, FeatureRole::kWind,
               Interval::bounded(0.0, 25.0)),
          spec("solar_wm2", "W/m^2", FeatureKind::kDisturbance, FeatureRole::kSolar,
               Interval::bounded(0.0, 1100.0)),
          spec("occupants", "count", FeatureKind::kDisturbance, FeatureRole::kOccupancy,
               Interval::bounded(0.0, 40.0)),
      });
  return schema;
}

const FeatureSchema& time_aware_schema() {
  static const FeatureSchema schema = [] {
    std::vector<FeatureSpec> features = baseline_schema().features();
    features.push_back(spec("hour_sin", "1", FeatureKind::kTemporal, FeatureRole::kHourSin,
                            Interval::bounded(-1.0, 1.0)));
    features.push_back(spec("hour_cos", "1", FeatureKind::kTemporal, FeatureRole::kHourCos,
                            Interval::bounded(-1.0, 1.0)));
    features.push_back(spec("occupants_ahead", "count", FeatureKind::kTemporal,
                            FeatureRole::kOccupancyForecast, Interval::bounded(0.0, 40.0)));
    return FeatureSchema("time-aware", std::move(features));
  }();
  return schema;
}

const FeatureSchema* find_schema(const std::string& name) {
  if (name == baseline_schema().name()) return &baseline_schema();
  if (name == time_aware_schema().name()) return &time_aware_schema();
  return nullptr;
}

const FeatureSchema& schema_by_name(const std::string& name) {
  const FeatureSchema* schema = find_schema(name);
  if (!schema) {
    throw std::invalid_argument("unknown observation schema '" + name +
                                "' (known: baseline, time-aware)");
  }
  return *schema;
}

std::vector<std::string> schema_names() {
  return {baseline_schema().name(), time_aware_schema().name()};
}

}  // namespace verihvac::env
