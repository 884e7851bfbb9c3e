// verihvac — command-line front end for the extract -> verify -> deploy
// -> serve workflow of the paper (Fig. 2), operating on policy-bundle
// files.
//
//   verihvac extract     --city Pittsburgh --points 600 --out policy.vhp
//   verihvac verify      --policy policy.vhp [--city Pittsburgh] [--correct]
//   verihvac campaign    [--climates A,B] [--buildings name:scale,..] [--out FILE]
//   verihvac simulate    --policy policy.vhp --city Pittsburgh [--days 31]
//   verihvac serve-bench [--climates A,B] [--buildings N] [--steps N] [--mbrl-frac F]
//   verihvac adapt-bench [--city NAME] [--buildings N] [--steps N] [--drift-step N]
//   verihvac export-c    --policy policy.vhp --prefix veri_hvac --out DIR
//   verihvac explain     --policy policy.vhp --input s,To,RH,w,S,occ
//   verihvac print       --policy policy.vhp [--rules]
//   verihvac stats       [--json] [--out FILE]
//   verihvac trace ls     --dir DIR
//   verihvac trace info   --segment FILE
//   verihvac trace dump   --dir DIR [--out FILE.vhtseg] [--limit N]
//   verihvac trace replay --dir DIR (--city NAME | --policy FILE) [...]
//   verihvac trace verify --dir DIR [--city NAME | --policy FILE] [...]
//
// The `trace` family operates on a durable-telemetry segment directory
// (adapt::TelemetryStore; adapt-bench --telemetry-dir writes one): list
// and inspect segments, consolidate them into one portable sealed segment, and
// re-verify the store's integrity — `verify` recomputes every decision
// from its RNG stream coordinates and checks the replay fingerprint, so a
// passing segment is certified by bit-identical replay, not just CRCs.
//
// Observability: campaign/serve-bench/adapt-bench accept --metrics-out
// (obs registry snapshot after the run; .json suffix selects the JSON
// form, anything else Prometheus text) and --trace-out (Chrome
// trace_event JSON of the run's spans — load in chrome://tracing or
// Perfetto). `stats` dumps the full instrument catalog exposition.
//
// Every subcommand exits non-zero on failure and prints to stderr; option
// parsing is strict (unknown --options and missing values are rejected
// against a per-subcommand spec, with that subcommand's usage printed).
// The formats are the library's own (core/policy_io bundles,
// core/edge_export C modules), so artifacts interoperate with the
// examples and benches.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/adaptation_controller.hpp"
#include "adapt/telemetry_store.hpp"
#include "core/campaign.hpp"
#include "core/edge_export.hpp"
#include "core/interpret.hpp"
#include "core/pipeline.hpp"
#include "core/policy_io.hpp"
#include "core/verification.hpp"
#include "envlib/env.hpp"
#include "envlib/feature_schema.hpp"
#include "envlib/metrics.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/fleet_harness.hpp"

namespace {

using namespace verihvac;

/// Strict "--key value" argument map, validated against a per-subcommand
/// option spec: unknown keys, missing values and values handed to pure
/// flags are all rejected with a clear message (the driver then prints the
/// subcommand's usage and exits non-zero).
class Args {
 public:
  /// Option name -> whether it takes a value (false = pure flag).
  using Spec = std::map<std::string, bool>;

  Args(int argc, char** argv, int first, const Spec& spec) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument: " + key);
      }
      key = key.substr(2);
      const auto option = spec.find(key);
      if (option == spec.end()) {
        throw std::invalid_argument("unknown option --" + key);
      }
      const bool has_next_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      if (option->second) {
        if (!has_next_value) {
          throw std::invalid_argument("option --" + key + " requires a value");
        }
        values_[key] = argv[++i];
      } else {
        if (has_next_value) {
          throw std::invalid_argument("option --" + key + " does not take a value (got '" +
                                      argv[i + 1] + "')");
        }
        values_[key] = "";
      }
    }
  }

  std::string required(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      throw std::invalid_argument("missing required option --" + key);
    }
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback : it->second;
  }
  long get_long(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback : std::stol(it->second);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() || it->second.empty() ? fallback : std::stod(it->second);
  }
  bool flag(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_extract(const Args& args) {
  core::PipelineConfig config = core::PipelineConfig::for_city(args.get("city", "Pittsburgh"));
  config.decision_points =
      static_cast<std::size_t>(args.get_long("points", static_cast<long>(config.decision_points)));
  const std::string out = args.required("out");

  const core::PipelineArtifacts artifacts = core::run_pipeline(config);
  core::save_policy(*artifacts.policy, out);
  std::printf("extracted + verified policy for %s\n", config.city.c_str());
  std::printf("  tree: %zu nodes, %zu leaves, depth %zu\n",
              artifacts.policy->tree().node_count(), artifacts.policy->tree().leaf_count(),
              artifacts.policy->tree().depth());
  std::printf("  Algorithm 1 corrections: #2=%zu #3=%zu\n", artifacts.formal.corrected_crit2,
              artifacts.formal.corrected_crit3);
  std::printf("  criterion #1 safe probability: %.3f (%zu samples)\n",
              artifacts.probabilistic.safe_probability, artifacts.probabilistic.samples);
  std::printf("  bundle written to %s\n", out.c_str());
  return 0;
}

int cmd_verify(const Args& args) {
  core::DtPolicy policy = core::load_policy(args.required("policy"));
  core::VerificationCriteria criteria;
  const bool correct = args.flag("correct");

  const core::FormalReport formal = core::verify_formal(policy, criteria, correct);
  std::printf("Algorithm 1 (criteria #2/#3):\n");
  std::printf("  leaves: %zu total, %zu subject #2, %zu subject #3\n", formal.leaves_total,
              formal.leaves_subject_crit2, formal.leaves_subject_crit3);
  std::printf("  violations: #2=%zu #3=%zu%s\n", formal.violations_crit2,
              formal.violations_crit3,
              correct ? " (corrected in-memory; use --out to persist)" : "");

  if (args.flag("city")) {
    // Criterion #1 needs a dynamics model + the city's input distribution;
    // rebuild both from a fresh historical collection.
    core::PipelineConfig config = core::PipelineConfig::for_city(args.get("city", "Pittsburgh"));
    const dyn::TransitionDataset historical =
        dyn::collect_historical_data(config.env, config.collection);
    dyn::DynamicsModel model(config.model);
    model.train(historical);
    config.criteria = criteria;
    const core::ProbabilisticReport prob =
        core::verify_criterion1(config, policy, model, historical);
    std::printf("criterion #1 (probabilistic, %s): safe probability %.3f -> %s\n",
                config.city.c_str(), prob.safe_probability,
                prob.passes(criteria) ? "PASS" : "FAIL");
  }
  if (correct && args.flag("out")) {
    core::save_policy(policy, args.required("out"));
    std::printf("corrected bundle written to %s\n", args.required("out").c_str());
  }
  return 0;
}

std::vector<std::string> split_csv_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string cell;
  while (std::getline(stream, cell, ',')) {
    if (!cell.empty()) out.push_back(cell);
  }
  return out;
}

/// Parses "name" / "name:scale" building-preset specs ("oversized"
/// defaults to the 2x design-day plant of the summer extension).
template <typename Preset>
std::vector<Preset> parse_presets(const std::string& csv) {
  std::vector<Preset> presets;
  for (const std::string& spec : split_csv_list(csv)) {
    Preset preset;
    const auto colon = spec.find(':');
    preset.name = spec.substr(0, colon);
    if (colon != std::string::npos) {
      preset.hvac_scale = std::stod(spec.substr(colon + 1));
    } else if (preset.name == "oversized") {
      preset.hvac_scale = 2.0;
    }
    presets.push_back(std::move(preset));
  }
  return presets;
}

/// Shared --metrics-out/--trace-out handling for the long-running
/// subcommands. Construct right after parsing (tracing must be live before
/// the instrumented work starts); call finish() once the run is done.
class ObsOutputs {
 public:
  explicit ObsOutputs(const Args& args)
      : metrics_path_(args.get("metrics-out", "")), trace_path_(args.get("trace-out", "")) {
    if (!trace_path_.empty()) {
      obs::TraceCollector::global().clear();
      obs::TraceCollector::global().enable();
    }
  }

  void finish() const {
    if (!metrics_path_.empty()) {
      // Register the whole catalog so the snapshot lists every instrument,
      // including the ones this run never touched.
      obs::register_catalog();
      const bool json = metrics_path_.size() >= 5 &&
                        metrics_path_.compare(metrics_path_.size() - 5, 5, ".json") == 0;
      std::ofstream file(metrics_path_);
      if (!file) throw std::runtime_error("cannot write " + metrics_path_);
      file << (json ? obs::MetricsRegistry::global().expose_json() + "\n"
                    : obs::MetricsRegistry::global().expose_text());
      std::printf("metrics snapshot written to %s (%s)\n", metrics_path_.c_str(),
                  json ? "json" : "prometheus text");
    }
    if (!trace_path_.empty()) {
      obs::TraceCollector& collector = obs::TraceCollector::global();
      collector.disable();
      const std::size_t spans = collector.snapshot().size();
      collector.write_chrome_trace(trace_path_);
      std::printf("trace written to %s (%zu spans, %llu overwritten)\n", trace_path_.c_str(),
                  spans, static_cast<unsigned long long>(collector.spans_dropped()));
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

int cmd_campaign(const Args& args) {
  const ObsOutputs obs_outputs(args);
  core::CampaignConfig config;
  // Throws std::invalid_argument on an unknown name, which the driver
  // turns into exit 2 plus this subcommand's usage.
  config.schema = env::schema_by_name(args.get("schema", "baseline"));
  config.climates = split_csv_list(args.get("climates", "Pittsburgh,Tucson,NewYork"));
  config.buildings =
      parse_presets<core::CampaignBuilding>(args.get("buildings", "baseline,oversized"));

  config.comfort_bands.clear();
  for (const std::string& name : split_csv_list(args.get("comfort", "winter"))) {
    if (name == "winter") {
      config.comfort_bands.push_back({"winter", env::winter_comfort()});
    } else if (name == "summer") {
      config.comfort_bands.push_back({"summer", env::summer_comfort()});
    } else {
      throw std::invalid_argument("--comfort entries must be 'winter' or 'summer'");
    }
  }

  config.envelopes.clear();
  for (const std::string& name : split_csv_list(args.get("envelopes", "mild"))) {
    if (name == "mild") {
      config.envelopes.push_back({"mild", core::mild_envelope(config.schema)});
    } else if (name == "design") {
      config.envelopes.push_back({"design", config.schema.envelope()});
    } else {
      throw std::invalid_argument("--envelopes entries must be 'mild' or 'design'");
    }
  }

  config.probabilistic_samples = static_cast<std::size_t>(
      args.get_long("samples", static_cast<long>(config.probabilistic_samples)));
  config.reach_states = static_cast<std::size_t>(
      args.get_long("reach-states", static_cast<long>(config.reach_states)));
  config.decision_points = static_cast<std::size_t>(args.get_long("points", 0));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 404));

  const core::VerificationEngine engine;  // shared VERI_HVAC_THREADS pool
  const core::CampaignResult result =
      core::run_campaign(config, engine, core::pipeline_asset_provider(config));
  std::printf("%s", result.to_table().c_str());
  std::printf("verification pool: %zu thread(s)\n", engine.thread_count());

  if (args.flag("out")) {
    const std::string path = args.required("out");
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    file << result.to_csv();
    std::printf("campaign CSV written to %s\n", path.c_str());
  }
  obs_outputs.finish();
  return 0;
}

int cmd_simulate(const Args& args) {
  core::DtPolicy policy = core::load_policy(args.required("policy"));
  core::PipelineConfig config = core::PipelineConfig::for_city(args.get("city", "Pittsburgh"));
  config.env.days = static_cast<int>(args.get_long("days", config.env.days));

  env::BuildingEnv building(config.env);
  env::EpisodeMetrics dt_metrics;
  env::Observation obs = building.reset();
  while (true) {
    const auto outcome = building.step(policy.act(obs, {}));
    dt_metrics.add(outcome);
    if (outcome.done) break;
    obs = outcome.observation;
  }

  control::RuleBasedController schedule(config.env.default_occupied,
                                        config.env.default_unoccupied);
  env::BuildingEnv baseline_env(config.env);
  env::EpisodeMetrics default_metrics;
  obs = baseline_env.reset();
  while (true) {
    const auto outcome = baseline_env.step(schedule.act(obs, {}));
    default_metrics.add(outcome);
    if (outcome.done) break;
    obs = outcome.observation;
  }

  std::printf("%-18s %12s %12s\n", "controller", "energy kWh", "violation");
  std::printf("%-18s %12.1f %12.3f\n", "default schedule", default_metrics.total_energy_kwh(),
              default_metrics.violation_rate());
  std::printf("%-18s %12.1f %12.3f\n", "DT policy", dt_metrics.total_energy_kwh(),
              dt_metrics.violation_rate());
  return 0;
}

int cmd_serve_bench(const Args& args) {
  const ObsOutputs obs_outputs(args);
  const env::FeatureSchema schema = env::schema_by_name(args.get("schema", "baseline"));
  serve::FleetConfig config;
  config.climates = split_csv_list(args.get("climates", "Pittsburgh"));
  config.presets = parse_presets<serve::FleetPreset>(args.get("presets", "baseline"));
  config.buildings_per_cell = static_cast<std::size_t>(args.get_long("buildings", 8));
  config.steps = static_cast<std::size_t>(args.get_long("steps", 12));
  config.mbrl_fraction = args.get_double("mbrl-frac", 0.25);
  config.days = static_cast<int>(args.get_long("days", 2));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 2024));
  config.rs.samples = static_cast<std::size_t>(args.get_long("samples", 64));
  config.rs.horizon = static_cast<std::size_t>(args.get_long("horizon", 5));
  config.async = !args.flag("sync");
  // MBRL queue shard override (0 = align to the session manager).
  config.scheduler.queue_shards = static_cast<std::size_t>(args.get_long("queue-shards", 0));

  // Per-cell serving assets from the extraction pipeline, cached by
  // (climate x hvac scale): presets only differ in plant sizing.
  auto cache = std::make_shared<std::map<std::string, serve::FleetAssets>>();
  const serve::FleetAssetProvider provider = [cache, schema](const std::string& climate,
                                                             const serve::FleetPreset& preset) {
    const std::string key = climate + "/" + std::to_string(preset.hvac_scale);
    const auto it = cache->find(key);
    if (it != cache->end()) return it->second;
    std::printf("extracting serving bundle for %s (hvac x%.2f, schema %s)...\n", climate.c_str(),
                preset.hvac_scale, schema.name().c_str());
    core::PipelineConfig pipeline = core::PipelineConfig::for_city(climate);
    pipeline.set_schema(schema);
    pipeline.env.hvac_capacity_scale = preset.hvac_scale;
    const core::PipelineArtifacts artifacts = core::run_pipeline(pipeline);
    const serve::FleetAssets assets{artifacts.policy, artifacts.model};
    cache->emplace(key, assets);
    return assets;
  };

  serve::FleetHarness harness(config, provider);
  std::printf("serving %zu climates x %zu presets x %zu buildings for %zu steps "
              "(mbrl fraction %.2f, %s, pool %zu thread(s))\n",
              config.climates.size(), config.presets.size(), config.buildings_per_cell,
              config.steps, config.mbrl_fraction, config.async ? "async" : "inline",
              harness.scheduler().thread_count());
  const serve::FleetReport report = harness.run();
  std::printf("%s", report.summary().c_str());

  if (args.flag("out")) {
    const std::string path = args.required("out");
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    file << report.to_json() << "\n";
    std::printf("serving report written to %s\n", path.c_str());
  }
  obs_outputs.finish();
  return 0;
}

int cmd_adapt_bench(const Args& args) {
  const ObsOutputs obs_outputs(args);
  const env::FeatureSchema schema = env::schema_by_name(args.get("schema", "baseline"));
  const std::string city = args.get("city", "Pittsburgh");
  serve::FleetConfig config;
  config.climates = {city};
  config.presets = {{"baseline", 1.0}};
  config.buildings_per_cell = static_cast<std::size_t>(args.get_long("buildings", 6));
  config.steps = static_cast<std::size_t>(args.get_long("steps", 96));
  config.mbrl_fraction = args.get_double("mbrl-frac", 0.25);
  config.days = static_cast<int>(args.get_long("days", 2));
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 2024));
  config.rs.samples = static_cast<std::size_t>(args.get_long("samples", 32));
  config.rs.horizon = static_cast<std::size_t>(args.get_long("horizon", 5));

  serve::FleetDriftEvent drift;
  drift.at_step = static_cast<std::size_t>(args.get_long("drift-step", 32));
  drift.degradation.hvac_capacity_factor = args.get_double("hvac-factor", 0.55);
  drift.degradation.heating_efficiency_factor = args.get_double("eff-factor", 0.85);
  drift.degradation.envelope_leak_factor = args.get_double("leak-factor", 1.3);
  config.drift.push_back(drift);

  const auto log = std::make_shared<adapt::TelemetryLog>();
  config.tap = log;
  config.on_session_open = [&log](serve::SessionId id, const serve::SessionConfig& session) {
    log->register_session(id, session.seed, session.policy_key);
  };
  // Optional durable tap: every decision the adapt loop consumes is also
  // persisted to rotated segments (inspect with `verihvac trace`). The
  // controller's pump drives the store (attach_store below).
  std::shared_ptr<adapt::TelemetryStore> store;
  if (args.flag("telemetry-dir")) {
    adapt::TelemetryStoreConfig store_config;
    store_config.directory = args.required("telemetry-dir");
    store_config.segment_max_bytes =
        static_cast<std::uint64_t>(args.get_long("segment-bytes", 4ll << 20));
    store = std::make_shared<adapt::TelemetryStore>(log, store_config);
  }
  adapt::AdaptationController* controller_ptr = nullptr;
  config.on_step = [&controller_ptr](serve::FleetHarness&, std::size_t) {
    if (controller_ptr != nullptr) controller_ptr->pump();
  };

  // Pipeline-extracted serving assets for the cell (same recipe as
  // serve-bench, shrunk by the VERI_HVAC_* knobs).
  std::printf("extracting serving bundle for %s (schema %s)...\n", city.c_str(),
              schema.name().c_str());
  core::PipelineConfig pipeline = core::PipelineConfig::for_city(city);
  pipeline.set_schema(schema);
  const core::PipelineArtifacts artifacts = core::run_pipeline(pipeline);
  const serve::FleetAssets assets{artifacts.policy, artifacts.model};

  serve::FleetHarness harness(
      config, [&assets](const std::string&, const serve::FleetPreset&) { return assets; });

  adapt::AdaptationConfig adaptation;
  adaptation.drift.ph_delta = args.get_double("ph-delta", 0.02);
  adaptation.drift.ph_lambda = args.get_double("ph-lambda", 2.0);
  adaptation.drift.min_samples = 48;
  adaptation.min_transitions = static_cast<std::size_t>(args.get_long("min-transitions", 60));
  adaptation.criteria = pipeline.criteria;
  adaptation.criteria.safe_probability_threshold = args.get_double("safe-threshold", 0.75);
  adaptation.probabilistic_samples = pipeline.probabilistic_samples / 4;
  adaptation.viper.iterations = 2;
  adaptation.viper.steps_per_iteration = 24;
  adaptation.viper.mc_repeats = 1;
  adaptation.teacher_rs = pipeline.rs_distill;
  adaptation.seed = config.seed + 3;
  adapt::AdaptationController controller(adaptation, log, harness.registry_ptr(),
                                         harness.sessions_ptr(), harness.scheduler());
  adapt::ClusterAssets cluster;
  cluster.model = artifacts.model;
  cluster.env = pipeline.env;
  cluster.env.days = 2;
  cluster.baseline = artifacts.historical;
  controller.register_cluster(city + "/baseline", cluster);
  if (store != nullptr) controller.attach_store(store);
  controller_ptr = &controller;

  std::printf("closed loop: %zu buildings x %zu steps, degradation at step %zu "
              "(hvac x%.2f, eff x%.2f, leak x%.2f)\n",
              config.buildings_per_cell, config.steps, drift.at_step,
              drift.degradation.hvac_capacity_factor,
              drift.degradation.heating_efficiency_factor,
              drift.degradation.envelope_leak_factor);
  const serve::FleetReport report = harness.run();
  std::printf("%s", report.summary().c_str());

  const auto stats = controller.stats();
  std::printf("telemetry: %llu records (%llu lost), %llu transitions; drift events %llu; "
              "adaptations %llu attempted, %llu promoted; dropped decisions %zu\n",
              static_cast<unsigned long long>(stats.records_drained),
              static_cast<unsigned long long>(stats.records_lost),
              static_cast<unsigned long long>(stats.transitions),
              static_cast<unsigned long long>(stats.drift_events),
              static_cast<unsigned long long>(stats.adaptations_attempted),
              static_cast<unsigned long long>(stats.adaptations_promoted),
              report.dropped_decisions);
  for (const adapt::AdaptationReport& attempt : controller.history()) {
    if (attempt.promoted) {
      std::printf("  generation %llu: certified (safe prob %.3f), shadow passed -> "
                  "promoted bundle v%llu\n",
                  static_cast<unsigned long long>(attempt.generation),
                  attempt.probabilistic.safe_probability,
                  static_cast<unsigned long long>(attempt.promoted_policy_version));
    } else {
      std::printf("  generation %llu: NOT promoted (certified=%d, safe prob %.3f, "
                  "shadow=%d) — incumbent keeps serving\n",
                  static_cast<unsigned long long>(attempt.generation), attempt.certified,
                  attempt.probabilistic.safe_probability, attempt.shadow_passed);
    }
  }
  if (store != nullptr) {
    store->stop();  // flush + seal, so `trace verify` can certify the tail
    const auto store_stats = store->stats();
    std::printf("durable telemetry: %llu record(s) persisted (%llu byte(s), %llu rotation(s)) "
                "in %s\n",
                static_cast<unsigned long long>(store_stats.records_persisted),
                static_cast<unsigned long long>(store_stats.bytes_written),
                static_cast<unsigned long long>(store_stats.rotations),
                store->directory().c_str());
  }

  if (args.flag("out")) {
    const std::string path = args.required("out");
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    file << report.to_json() << "\n";
    std::printf("adaptation report written to %s\n", path.c_str());
  }
  obs_outputs.finish();
  return 0;
}

int cmd_stats(const Args& args) {
  // The full catalog, so even a traffic-less process lists every
  // instrument with its zero value (what a scrape endpoint would export).
  obs::register_catalog();
  const std::string text = args.flag("json")
                               ? obs::MetricsRegistry::global().expose_json() + "\n"
                               : obs::MetricsRegistry::global().expose_text();
  if (args.flag("out")) {
    const std::string path = args.required("out");
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    file << text;
    std::printf("stats written to %s\n", path.c_str());
  } else {
    std::printf("%s", text.c_str());
  }
  return 0;
}

// --- trace: durable telemetry segment tooling -------------------------------

// Replay artifacts for `trace replay`/`trace verify`. A pipeline-extracted
// cell (`--city`) maps its bundle to registry version 1 and its model to
// generation 1 — the versions a fresh fleet serves — while `--policy FILE`
// loads a saved bundle at `--policy-version` (adapted bundles land at 2, 3,
// ...). The optimizer knobs must match the capture run; the defaults mirror
// adapt-bench.
bool build_replay_assets(const Args& args, adapt::ReplayAssets& assets,
                         adapt::ReplayConfig& config) {
  config.rs.samples = static_cast<std::size_t>(args.get_long("samples", 32));
  config.rs.horizon = static_cast<std::size_t>(args.get_long("horizon", 5));
  if (args.flag("city")) {
    const std::string city = args.required("city");
    std::printf("extracting replay assets for %s...\n", city.c_str());
    core::PipelineConfig pipeline = core::PipelineConfig::for_city(city);
    pipeline.set_schema(env::schema_by_name(args.get("schema", "baseline")));
    const core::PipelineArtifacts artifacts = core::run_pipeline(pipeline);
    assets.policies[1] = artifacts.policy;
    assets.models[1] = artifacts.model;
  }
  if (args.flag("policy")) {
    const auto version = static_cast<std::uint64_t>(args.get_long("policy-version", 1));
    assets.policies[version] =
        std::make_shared<core::DtPolicy>(core::load_policy(args.required("policy")));
  }
  return !assets.policies.empty() || !assets.models.empty();
}

int cmd_trace_ls(const Args& args) {
  const auto segments = adapt::list_segments(args.required("dir"));
  std::printf("%-28s %-6s %10s %9s %21s %12s  %s\n", "segment", "state", "records", "sessions",
              "decisions", "bytes", "replay-fp");
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  for (const adapt::SegmentInfo& seg : segments) {
    const adapt::SegmentHeader& h = seg.header;
    const std::string name = std::filesystem::path(seg.path).filename().string();
    std::string span = "-";
    if (h.record_count > 0) {
      span = std::to_string(h.decision_min) + ".." + std::to_string(h.decision_max);
    }
    std::printf("%-28s %-6s %10llu %9llu %21s %12llu  %016llx\n", name.c_str(),
                seg.open ? "open" : "sealed", static_cast<unsigned long long>(h.record_count),
                static_cast<unsigned long long>(h.session_count), span.c_str(),
                static_cast<unsigned long long>(h.payload_bytes),
                static_cast<unsigned long long>(h.replay_fingerprint));
    records += h.record_count;
    bytes += h.payload_bytes;
  }
  std::printf("%zu segment(s), %llu record(s), %llu payload byte(s)\n", segments.size(),
              static_cast<unsigned long long>(records), static_cast<unsigned long long>(bytes));
  return 0;
}

int cmd_trace_info(const Args& args) {
  const std::string path = args.required("segment");
  const adapt::SegmentHeader h = adapt::read_segment_header(path);
  std::printf("segment            %s\n", path.c_str());
  std::printf("format version     %u (trace v%u)\n", h.format_version, h.trace_version);
  std::printf("sealed             %s\n", h.sealed != 0 ? "yes" : "no (active/torn tail)");
  std::printf("base seq           %llu\n", static_cast<unsigned long long>(h.base_seq));
  std::printf("records            %llu\n", static_cast<unsigned long long>(h.record_count));
  std::printf("session frames     %llu\n", static_cast<unsigned long long>(h.session_count));
  if (h.record_count > 0) {
    std::printf("sessions           %llu..%llu\n", static_cast<unsigned long long>(h.session_min),
                static_cast<unsigned long long>(h.session_max));
    std::printf("decisions          %llu..%llu\n", static_cast<unsigned long long>(h.decision_min),
                static_cast<unsigned long long>(h.decision_max));
  }
  std::printf("schema fingerprint %016llx\n",
              static_cast<unsigned long long>(h.schema_fingerprint));
  std::printf("steady span        %.3fs\n",
              static_cast<double>(h.close_steady_ns - h.open_steady_ns) * 1e-9);
  std::printf("payload            %llu byte(s), crc %08x\n",
              static_cast<unsigned long long>(h.payload_bytes), h.payload_crc);
  std::printf("replay fingerprint %016llx\n",
              static_cast<unsigned long long>(h.replay_fingerprint));
  return 0;
}

int cmd_trace_dump(const Args& args) {
  const adapt::TelemetryTrace trace = adapt::load_directory(args.required("dir"));
  if (args.flag("out")) {
    const std::string path = args.required("out");
    adapt::write_segment(trace, path);
    std::printf("consolidated %zu session(s), %zu record(s) into %s\n", trace.sessions.size(),
                trace.records.size(), path.c_str());
    return 0;
  }
  const auto limit = static_cast<std::size_t>(args.get_long("limit", 20));
  std::printf("%zu session(s), %zu record(s)\n", trace.sessions.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size() && i < limit; ++i) {
    const adapt::TelemetryRecord& r = trace.records[i];
    std::printf("  session %llu decision %llu %s v%llu action %u (obs %u dims, forecast %u)\n",
                static_cast<unsigned long long>(r.session),
                static_cast<unsigned long long>(r.decision_index),
                r.request_kind() == serve::RequestKind::kDtPolicy ? "dt" : "mbrl",
                static_cast<unsigned long long>(r.policy_version), r.action_index, r.obs_len,
                r.forecast_len);
  }
  if (trace.records.size() > limit) {
    std::printf("  ... %zu more (raise --limit or use --out FILE)\n",
                trace.records.size() - limit);
  }
  return 0;
}

int cmd_trace_replay(const Args& args) {
  const adapt::TelemetryTrace trace = adapt::load_directory(args.required("dir"));
  adapt::ReplayAssets assets;
  adapt::ReplayConfig config;
  if (!build_replay_assets(args, assets, config)) {
    throw std::invalid_argument("trace replay needs assets: --city NAME and/or --policy FILE");
  }
  const adapt::ReplayReport report = adapt::replay_trace(trace, assets, config);
  std::printf("replayed %zu/%zu record(s): %zu matched, %zu skipped (%zu truncated, "
              "%zu missing assets)\n",
              report.replayed, trace.records.size(), report.matched,
              report.skipped_truncated + report.skipped_missing_assets, report.skipped_truncated,
              report.skipped_missing_assets);
  for (const auto& m : report.mismatches) {
    std::printf("  MISMATCH record %zu: served action %zu, replay chose %zu\n", m[0], m[1], m[2]);
  }
  if (report.matched != report.replayed) {
    std::printf("replay DIVERGED — captured decisions are not reproducible with these assets\n");
    return 1;
  }
  std::printf("replay bit-identical\n");
  return 0;
}

int cmd_trace_verify(const Args& args) {
  adapt::ReplayAssets assets;
  adapt::ReplayConfig config;
  const bool with_replay = build_replay_assets(args, assets, config);
  const auto segments = adapt::list_segments(args.required("dir"));
  bool all_ok = true;
  std::size_t sealed = 0;
  for (const adapt::SegmentInfo& seg : segments) {
    const std::string name = std::filesystem::path(seg.path).filename().string();
    if (seg.open) {
      std::printf("%-28s SKIP  active/torn tail (seal the store first)\n", name.c_str());
      continue;
    }
    const adapt::SegmentVerifyReport report = adapt::verify_segment(
        seg.path, with_replay ? &assets : nullptr, with_replay ? &config : nullptr);
    all_ok = all_ok && report.ok();
    ++sealed;
    if (!report.structure_ok) {
      std::printf("%-28s FAIL  structure: %s\n", name.c_str(), report.error.c_str());
    } else if (!report.fingerprint_ok) {
      std::printf("%-28s FAIL  recorded-action fingerprint %016llx != header\n", name.c_str(),
                  static_cast<unsigned long long>(report.replay_fingerprint));
    } else if (report.replayed_pass && !report.replay_ok) {
      std::printf("%-28s FAIL  replay: %zu/%zu matched, fingerprint %016llx\n", name.c_str(),
                  report.matched, report.replayed,
                  static_cast<unsigned long long>(report.replay_fingerprint));
    } else {
      std::printf("%-28s OK    %zu record(s)%s\n", name.c_str(), report.records,
                  report.replayed_pass
                      ? (" — replay certified (" + std::to_string(report.replayed) +
                         " replayed, " +
                         std::to_string(report.skipped_truncated +
                                        report.skipped_missing_assets) +
                         " skipped)")
                            .c_str()
                      : " — structural only (pass --city/--policy to replay-certify)");
    }
  }
  if (!all_ok) {
    std::printf("verification FAILED\n");
    return 1;
  }
  // A directory with nothing sealed certifies nothing: an empty store, or
  // one that never sealed its tail, must not read as a pass.
  if (sealed == 0) {
    std::printf("verification FAILED: no sealed segment to verify\n");
    return 1;
  }
  std::printf("all %zu sealed segment(s) verified\n", sealed);
  return 0;
}

int cmd_export_c(const Args& args) {
  const core::DtPolicy policy = core::load_policy(args.required("policy"));
  core::EdgeExportOptions options;
  options.prefix = args.get("prefix", "veri_hvac");
  const std::string style = args.get("style", "table");
  if (style == "nested") {
    options.style = tree::CodegenStyle::kNestedIf;
  } else if (style == "table") {
    options.style = tree::CodegenStyle::kFlatTable;
  } else {
    throw std::invalid_argument("--style must be 'table' or 'nested'");
  }
  const std::string dir = args.get("out", ".");
  core::export_policy_c(policy, dir, options);
  std::printf("wrote %s/%s.c and %s/%s.h\n", dir.c_str(), options.prefix.c_str(), dir.c_str(),
              options.prefix.c_str());
  return 0;
}

int cmd_explain(const Args& args) {
  const core::DtPolicy policy = core::load_policy(args.required("policy"));
  const std::string csv = args.required("input");
  std::vector<double> x;
  std::stringstream stream(csv);
  std::string cell;
  while (std::getline(stream, cell, ',')) x.push_back(std::stod(cell));
  if (x.size() != policy.schema().dims()) {
    // The bundle knows its own layout — report it so a time-aware policy
    // asks for its 9 features by name rather than a hard-coded 6.
    std::string names;
    for (const std::string& name : policy.schema().feature_names()) {
      if (!names.empty()) names += ",";
      names += name;
    }
    throw std::invalid_argument("--input needs " + std::to_string(policy.schema().dims()) +
                                " comma-separated values (" + names + ")");
  }
  std::printf("%s", core::explain(policy, x).to_string().c_str());
  return 0;
}

int cmd_print(const Args& args) {
  const core::DtPolicy policy = core::load_policy(args.required("policy"));
  std::printf("policy: %zu nodes, %zu leaves, depth %zu, %zu actions\n",
              policy.tree().node_count(), policy.tree().leaf_count(), policy.tree().depth(),
              policy.actions().size());
  std::printf("%s\n", core::feature_importance_report(policy).c_str());
  std::printf("%s", core::policy_summary_report(policy).c_str());
  if (args.flag("rules")) {
    std::printf("\n%s", policy.to_text().c_str());
  }
  return 0;
}

/// One subcommand: its option spec (strict), usage line(s), and handler.
struct Command {
  Args::Spec spec;
  std::string usage;
  std::function<int(const Args&)> run;
};

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"extract",
       {{{"out", true}, {"city", true}, {"points", true}},
        "extract  --out FILE [--city NAME] [--points N]",
        cmd_extract}},
      {"verify",
       {{{"policy", true}, {"city", true}, {"correct", false}, {"out", true}},
        "verify   --policy FILE [--city NAME] [--correct] [--out FILE]",
        cmd_verify}},
      {"campaign",
       {{{"climates", true},
         {"buildings", true},
         {"comfort", true},
         {"envelopes", true},
         {"schema", true},
         {"samples", true},
         {"reach-states", true},
         {"points", true},
         {"seed", true},
         {"out", true},
         {"metrics-out", true},
         {"trace-out", true}},
        "campaign [--climates A,B,..] [--buildings name[:scale],..]\n"
        "         [--comfort winter,summer] [--envelopes mild,design]\n"
        "         [--schema baseline|time-aware] [--samples N]\n"
        "         [--reach-states N] [--points N] [--seed N] [--out FILE.csv]\n"
        "         [--metrics-out FILE] [--trace-out FILE.json]",
        cmd_campaign}},
      {"simulate",
       {{{"policy", true}, {"city", true}, {"days", true}},
        "simulate --policy FILE [--city NAME] [--days N]",
        cmd_simulate}},
      {"serve-bench",
       {{{"climates", true},
         {"presets", true},
         {"buildings", true},
         {"steps", true},
         {"mbrl-frac", true},
         {"days", true},
         {"seed", true},
         {"samples", true},
         {"horizon", true},
         {"sync", false},
         {"queue-shards", true},
         {"schema", true},
         {"out", true},
         {"metrics-out", true},
         {"trace-out", true}},
        "serve-bench [--climates A,B,..] [--presets name[:scale],..]\n"
        "            [--buildings N] [--steps N] [--mbrl-frac F] [--days N]\n"
        "            [--samples N] [--horizon N] [--seed N] [--sync]\n"
        "            [--queue-shards N] [--schema baseline|time-aware]\n"
        "            [--out FILE.json] [--metrics-out FILE] [--trace-out FILE.json]",
        cmd_serve_bench}},
      {"adapt-bench",
       {{{"city", true},
         {"buildings", true},
         {"steps", true},
         {"drift-step", true},
         {"hvac-factor", true},
         {"eff-factor", true},
         {"leak-factor", true},
         {"mbrl-frac", true},
         {"days", true},
         {"samples", true},
         {"horizon", true},
         {"seed", true},
         {"ph-delta", true},
         {"ph-lambda", true},
         {"min-transitions", true},
         {"safe-threshold", true},
         {"schema", true},
         {"out", true},
         {"telemetry-dir", true},
         {"segment-bytes", true},
         {"metrics-out", true},
         {"trace-out", true}},
        "adapt-bench [--city NAME] [--buildings N] [--steps N] [--drift-step N]\n"
        "            [--hvac-factor F] [--eff-factor F] [--leak-factor F]\n"
        "            [--mbrl-frac F] [--days N] [--samples N] [--horizon N]\n"
        "            [--ph-delta F] [--ph-lambda F] [--min-transitions N]\n"
        "            [--safe-threshold F] [--schema baseline|time-aware]\n"
        "            [--seed N] [--out FILE.json]\n"
        "            [--telemetry-dir DIR] [--segment-bytes N]\n"
        "            [--metrics-out FILE] [--trace-out FILE.json]",
        cmd_adapt_bench}},
      {"export-c",
       {{{"policy", true}, {"prefix", true}, {"out", true}, {"style", true}},
        "export-c --policy FILE [--prefix ID] [--out DIR] [--style table|nested]",
        cmd_export_c}},
      {"explain",
       {{{"policy", true}, {"input", true}},
        "explain  --policy FILE --input s,To,RH,w,S,occ[,...]  (bundle's schema order)",
        cmd_explain}},
      {"print",
       {{{"policy", true}, {"rules", false}},
        "print    --policy FILE [--rules]",
        cmd_print}},
      {"stats",
       {{{"json", false}, {"out", true}},
        "stats    [--json] [--out FILE]  (instrument-catalog exposition)",
        cmd_stats}},
      // The trace family shares this table: each verb is a two-word key
      // ("trace ls") with its own strict spec, so unknown options and
      // missing values get the same exit-2 + usage discipline as every
      // other subcommand (main() splices the verb into the lookup key).
      {"trace ls", {{{"dir", true}}, "trace ls     --dir DIR", cmd_trace_ls}},
      {"trace info", {{{"segment", true}}, "trace info   --segment FILE", cmd_trace_info}},
      {"trace dump",
       {{{"dir", true}, {"out", true}, {"limit", true}},
        "trace dump   --dir DIR [--out FILE.vhtseg] [--limit N]",
        cmd_trace_dump}},
      {"trace replay",
       {{{"dir", true},
         {"city", true},
         {"schema", true},
         {"policy", true},
         {"policy-version", true},
         {"samples", true},
         {"horizon", true}},
        "trace replay --dir DIR (--city NAME | --policy FILE [--policy-version N])\n"
        "             [--schema baseline|time-aware] [--samples N] [--horizon N]",
        cmd_trace_replay}},
      {"trace verify",
       {{{"dir", true},
         {"city", true},
         {"schema", true},
         {"policy", true},
         {"policy-version", true},
         {"samples", true},
         {"horizon", true}},
        "trace verify --dir DIR [--city NAME] [--policy FILE [--policy-version N]]\n"
        "             [--schema baseline|time-aware] [--samples N] [--horizon N]",
        cmd_trace_verify}},
  };
  return table;
}

void usage() {
  std::fprintf(stderr, "usage: verihvac <command> [options]\n");
  for (const auto& [name, command] : commands()) {
    (void)name;
    std::fprintf(stderr, "  %s\n", command.usage.c_str());
  }
  std::fprintf(stderr,
               "cities: Pittsburgh, Tucson, NewYork. VERI_HVAC_FULL=1 restores the\n"
               "paper-scale hyperparameters for extract/verify; VERI_HVAC_THREADS\n"
               "sizes the shared worker pool for campaign/serve-bench.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage();
    return 0;
  }
  // Two-word commands ("trace ls"): splice the verb into the lookup key so
  // the whole family lives in the same spec table as everything else.
  int first_option = 2;
  if (command == "trace") {
    if (argc < 3) {
      std::fprintf(stderr, "verihvac: trace needs a verb (ls|info|dump|replay|verify)\n");
      usage();
      return 2;
    }
    command += " " + std::string(argv[2]);
    first_option = 3;
  }
  const auto it = commands().find(command);
  if (it == commands().end()) {
    std::fprintf(stderr, "verihvac: unknown command '%s'\n", command.c_str());
    usage();
    return 2;
  }
  try {
    const Args args(argc, argv, first_option, it->second.spec);
    return it->second.run(args);
  } catch (const std::invalid_argument& error) {
    // Option/spec errors: say what was wrong and how to call this command.
    std::fprintf(stderr, "verihvac %s: %s\nusage: verihvac %s\n", command.c_str(), error.what(),
                 it->second.usage.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "verihvac %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
