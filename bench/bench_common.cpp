#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/config.hpp"
#include "common/rng.hpp"

namespace verihvac::bench {

core::PipelineConfig bench_config(const std::string& city) {
  core::PipelineConfig cfg = core::PipelineConfig::for_city(city);
  cfg.env.days = static_cast<int>(env_or_long("VERI_HVAC_DAYS", 31));
  return cfg;
}

void print_banner(const std::string& bench, const std::string& artifact) {
  const bool full = full_scale();
  std::printf("== %s — reproduces %s ==\n", bench.c_str(), artifact.c_str());
  std::printf("scale: %s (VERI_HVAC_FULL=%d, days=%ld, RS samples=%ld, horizon=%ld, "
              "MC repeats=%ld, decision points=%ld)\n\n",
              full ? "paper" : "quick", full ? 1 : 0, env_or_long("VERI_HVAC_DAYS", 31),
              env_or_long("VERI_HVAC_RS_SAMPLES", full ? 1000 : 128),
              env_or_long("VERI_HVAC_RS_HORIZON", full ? 20 : 10),
              env_or_long("VERI_HVAC_MC_REPEATS", full ? 10 : 5),
              env_or_long("VERI_HVAC_DECISION_POINTS", full ? 3000 : 600));
}

env::EpisodeMetrics run_full_episode(const env::EnvConfig& config,
                                     control::Controller& controller,
                                     control::EpisodeTrace* trace) {
  env::BuildingEnv environment(config);
  return control::run_episode(environment, controller, trace);
}

std::string artifact_path(const std::string& filename) {
  const std::filesystem::path dir(output_dir());
  std::filesystem::create_directories(dir);
  return (dir / filename).string();
}

std::string write_csv(const std::string& filename, const std::string& header,
                      const std::vector<std::vector<double>>& rows) {
  const std::string path = artifact_path(filename);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv: cannot open " + path);
  out << header << '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << row[i];
    }
    out << '\n';
  }
  return path;
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double std_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double best_of_trials(std::size_t trials, const std::function<void()>& timed_run) {
  double best = 0.0;
  for (std::size_t trial = 0; trial < std::max<std::size_t>(1, trials); ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    timed_run();
    const double secs = seconds_since(t0);
    if (trial == 0 || secs < best) best = secs;
  }
  return best;
}

double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const env::FeatureSchema& schema = env::baseline_schema();
  const double t = x[schema.zone_temp_index()];
  double dt = 0.08 * (x[schema.index_of(env::FeatureRole::kOutdoorTemp)] - t);
  if (t < a.heating_c) dt += 0.4 * std::min(a.heating_c - t, 1.2);
  if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
  return t + dt;
}

std::shared_ptr<const dyn::DynamicsModel> toy_dynamics_model(std::size_t points,
                                                             std::size_t epochs) {
  Rng rng(1);
  dyn::TransitionDataset data;
  for (std::size_t i = 0; i < points; ++i) {
    dyn::Transition t;
    t.input = {rng.uniform(14.0, 28.0), rng.uniform(-8.0, 12.0), 50.0, 3.0,
               rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
    t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
    t.action.cooling_c = static_cast<double>(
        rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
    t.next_zone_temp = toy_plant(t.input, t.action);
    data.add(t);
  }
  dyn::DynamicsModelConfig cfg;
  cfg.trainer.epochs = epochs;
  auto model = std::make_shared<dyn::DynamicsModel>(cfg);
  model->train(data);
  return model;
}

std::shared_ptr<const core::DtPolicy> toy_decision_policy(std::size_t points) {
  control::ActionSpace actions;
  Rng rng(3);
  core::DecisionDataset data;
  for (std::size_t i = 0; i < points; ++i) {
    core::DecisionRecord rec;
    rec.input = {rng.uniform(12.0, 30.0), rng.uniform(-10.0, 35.0), rng.uniform(20.0, 95.0),
                 rng.uniform(0.0, 12.0), rng.uniform(0.0, 600.0),
                 rng.bernoulli(0.5) ? 11.0 : 0.0};
    rec.action_index = rng.index(actions.size());
    data.records.push_back(std::move(rec));
  }
  return std::make_shared<const core::DtPolicy>(core::DtPolicy::fit(data, actions));
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

}  // namespace

JsonObject& JsonObject::field(const std::string& name, double value) {
  fields_.emplace_back(name, json_number(value));
  return *this;
}

JsonObject& JsonObject::field(const std::string& name, std::size_t value) {
  fields_.emplace_back(name, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::field(const std::string& name, const std::string& value) {
  fields_.emplace_back(name, "\"" + json_escape(value) + "\"");
  return *this;
}

JsonObject& JsonObject::field_bool(const std::string& name, bool value) {
  fields_.emplace_back(name, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::field_raw(const std::string& name, const std::string& json) {
  fields_.emplace_back(name, json);
  return *this;
}

JsonObject& JsonObject::field_array(const std::string& name,
                                    const std::vector<JsonObject>& rows) {
  std::string json = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) json += ", ";
    json += rows[i].str();
  }
  json += "]";
  fields_.emplace_back(name, std::move(json));
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

std::string write_bench_json(const std::string& filename, const JsonObject& object) {
  const std::string path = artifact_path(filename);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_bench_json: cannot open " + path);
  out << object.str() << "\n";
  return path;
}

}  // namespace verihvac::bench
