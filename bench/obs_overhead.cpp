// Bench — the serve path's observability and telemetry overhead bars, and
// the never-perturb-decisions invariant.
//
// The obs fabric and the telemetry tap promise to be free where it matters
// and rich where it pays. Three sections gate that promise:
//
//   1. Bit-identity. Observability must NEVER perturb decisions: the
//      same mixed (DT + micro-batched MBRL) scenario is served with
//      tracing off and with tracing fully on, at engine pools of 1/4/8
//      threads. All six runs must produce bit-identical decisions.
//
//   2. Overhead bars, each a best-of-N interleaved comparison of two
//      configurations of one serve loop:
//        - tracing fully on vs off on the DT fast path: < 2%;
//        - a telemetry tap capturing DT decisions 2-in-32 vs no tap: < 5%;
//        - adding 1-in-32 sampled DT timing vs capture alone: < 5%
//          increment;
//        - the tap drained through a durable TelemetryStore vs drained in
//          memory, on 1-in-4 MBRL traffic: < 5%.
//
//   3. Adaptation trace coverage. A drifted toy plant drives one full
//      adaptation generation under tracing; the captured trace must
//      contain every pipeline stage — drift alarm -> fine-tune -> VIPER
//      re-distill -> re-certify -> shadow gate -> hot-swap —
//      with non-zero durations, and the run's metrics snapshot + Chrome
//      trace are written as artifacts next to BENCH_obs.json.
//
// Emits BENCH_obs.json. --smoke shrinks workloads and skips the
// noise-sensitive overhead bars; the exact gates (bit-identity, trace
// coverage) hold at any scale.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "adapt/adaptation_controller.hpp"
#include "adapt/telemetry_store.hpp"
#include "bench_common.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request_scheduler.hpp"

namespace {

using namespace verihvac;
using bench::seconds_since;

env::Observation observation_for(std::size_t i) {
  env::Observation obs;
  obs.zone_temp_c = 14.0 + static_cast<double>(i % 17);
  obs.weather.outdoor_temp_c = -8.0 + static_cast<double>(i % 23);
  obs.weather.humidity_pct = 50.0;
  obs.weather.wind_mps = 3.0;
  obs.weather.solar_wm2 = static_cast<double>((i * 37) % 400);
  obs.occupants = (i % 3 == 0) ? 11.0 : 0.0;
  return obs;
}

std::shared_ptr<const common::TaskPool> pool_with_threads(std::size_t threads) {
  return std::make_shared<const common::TaskPool>(
      common::TaskPoolConfig{threads, /*min_parallel_batch=*/1});
}

/// Fresh serving stack over the shared toy assets (sections 1 and 2).
struct Stack {
  std::shared_ptr<serve::PolicyRegistry> registry = std::make_shared<serve::PolicyRegistry>();
  std::shared_ptr<serve::SessionManager> sessions = std::make_shared<serve::SessionManager>();
  std::unique_ptr<serve::RequestScheduler> scheduler;
  std::shared_ptr<adapt::TelemetryLog> tap;
  std::vector<serve::SessionId> ids;

  Stack(const std::shared_ptr<const core::DtPolicy>& policy,
        const std::shared_ptr<const dyn::DynamicsModel>& model,
        const control::RandomShootingConfig& rs, std::size_t threads, std::size_t n_sessions,
        const serve::SchedulerConfig& config = serve::SchedulerConfig{},
        std::shared_ptr<adapt::TelemetryLog> telemetry = nullptr)
      : tap(std::move(telemetry)) {
    registry->install("toy", policy);
    scheduler = std::make_unique<serve::RequestScheduler>(config, registry, sessions, rs,
                                                          control::ActionSpace{},
                                                          env::RewardConfig{},
                                                          pool_with_threads(threads));
    scheduler->install_model("toy", model);
    if (tap != nullptr) scheduler->set_tap(tap);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      serve::SessionConfig session;
      session.policy_key = "toy";
      session.seed = 5000 + 13 * s;
      ids.push_back(sessions->open(session));
      if (tap != nullptr) tap->register_session(ids.back(), session.seed, session.policy_key);
    }
  }

  serve::ControlRequest request(std::size_t i, serve::RequestKind kind,
                                std::size_t horizon) const {
    serve::ControlRequest request;
    request.session = ids[i % ids.size()];
    request.kind = kind;
    request.observation = observation_for(i);
    if (kind == serve::RequestKind::kMbrlFallback) {
      env::Disturbance d;
      d.weather = request.observation.weather;
      d.occupants = request.observation.occupants;
      request.forecast = std::vector<env::Disturbance>(horizon, d);
    }
    return request;
  }
};

/// Best-of-`trials` wall seconds of `run(mode)` for each of `modes` modes.
/// Trials interleave the modes and rotate which one leads each round, so
/// slow drift of the machine (frequency, background load) hits every mode
/// equally instead of biasing against whichever always runs last; noise
/// only ever slows a trial down, so the best trial is the stable estimate.
/// Dirty pages are pushed to disk between rounds, outside the timed
/// windows, so one trial's writeback never bleeds into the next.
std::vector<double> interleaved_best_of(std::size_t modes, std::size_t trials,
                                        const std::function<void(std::size_t)>& run) {
  std::vector<double> best(modes, 0.0);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    for (std::size_t slot = 0; slot < modes; ++slot) {
      const std::size_t mode = (trial + slot) % modes;
      const auto t0 = std::chrono::steady_clock::now();
      run(mode);
      const double secs = seconds_since(t0);
      if (trial == 0 || secs < best[mode]) best[mode] = secs;
    }
#ifdef __unix__
    ::sync();
#endif
  }
  return best;
}

/// The full action+version identity of one decision; doubles compare
/// bitwise (operator==), which is exactly the identity the gate demands.
struct DecisionKey {
  std::size_t action_index;
  double heating_c;
  double cooling_c;
  std::uint64_t policy_version;

  bool operator==(const DecisionKey& other) const {
    return action_index == other.action_index && heating_c == other.heating_c &&
           cooling_c == other.cooling_c && policy_version == other.policy_version;
  }
};

/// The building after equipment wear: heating delivers 30% less than the
/// toy plant the model was trained on — a residual shift the monitor must
/// flag, still certifiable inside the wide toy comfort band.
double drifted_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const env::FeatureSchema& schema = env::baseline_schema();
  const double t = x[schema.zone_temp_index()];
  double dt = 0.08 * (x[schema.index_of(env::FeatureRole::kOutdoorTemp)] - t);
  if (t < a.heating_c) dt += 0.28 * std::min(a.heating_c - t, 1.2);
  if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
  return t + dt;
}

env::Observation mild_occupied(double zone_temp) {
  env::Observation obs;
  obs.zone_temp_c = zone_temp;
  obs.weather.outdoor_temp_c = 15.0;
  obs.weather.humidity_pct = 50.0;
  obs.weather.wind_mps = 3.0;
  obs.weather.solar_wm2 = 120.0;
  obs.occupants = 11.0;
  return obs;
}

/// Dynamics model trained on bench::toy_plant over the region the drift
/// trajectories actually visit (mild outdoors), so the pre-drift residual
/// baseline is small and the degradation stands out.
std::shared_ptr<const dyn::DynamicsModel> loop_model() {
  Rng rng(1);
  dyn::TransitionDataset data;
  for (int i = 0; i < 1500; ++i) {
    dyn::Transition t;
    t.input = {rng.uniform(17.0, 24.0), rng.uniform(12.0, 18.0), 50.0, 3.0,
               rng.uniform(0.0, 400.0), 11.0};
    t.action.heating_c = 22.5;
    t.action.cooling_c = 26.0;
    t.next_zone_temp = bench::toy_plant(t.input, t.action);
    data.add(t);
  }
  dyn::DynamicsModelConfig config;
  config.trainer.epochs = 60;
  auto model = std::make_shared<dyn::DynamicsModel>(config);
  model->train(data);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("== obs_overhead — never-perturb-decisions, serve-path overhead bars, full "
              "adaptation trace ==\n%s\n\n", smoke ? "(smoke scale)" : "(bench scale)");

  obs::register_catalog();
  obs::TraceCollector& trace = obs::TraceCollector::global();

  const auto toy_policy = bench::toy_decision_policy();
  const auto toy_model = bench::toy_dynamics_model();
  control::RandomShootingConfig toy_rs;
  toy_rs.samples = smoke ? 16 : 64;
  toy_rs.horizon = smoke ? 3 : 5;

  bench::JsonObject artifact;
  artifact.field("bench", std::string("obs_overhead")).field_bool("smoke", smoke);
  bool failed = false;

  // ---- Section 1: observability never perturbs decisions.
  // The same mixed scenario, served request-by-request in a fixed order,
  // across {tracing off, tracing on} x engine pools {1, 4, 8}. The six
  // decision sequences must agree bitwise — the whole point of wait-free
  // dual-publication is that turning the lights on changes nothing.
  {
    const std::size_t decisions = smoke ? 256 : 2048;
    std::vector<std::vector<DecisionKey>> runs;
    for (const bool traced : {false, true}) {
      for (const std::size_t threads : {1u, 4u, 8u}) {
        trace.clear();
        if (traced) {
          trace.enable();
        } else {
          trace.disable();
        }
        Stack stack(toy_policy, toy_model, toy_rs, threads, /*n_sessions=*/16);
        std::vector<DecisionKey> keys;
        keys.reserve(decisions);
        for (std::size_t i = 0; i < decisions; ++i) {
          const auto kind =
              i % 4 == 0 ? serve::RequestKind::kDtPolicy : serve::RequestKind::kMbrlFallback;
          const serve::ControlDecision d =
              stack.scheduler->serve(stack.request(i, kind, toy_rs.horizon));
          keys.push_back({d.action_index, d.action.heating_c, d.action.cooling_c,
                          d.policy_version});
        }
        runs.push_back(std::move(keys));
      }
    }
    trace.disable();
    trace.clear();
    bool identical = true;
    for (std::size_t r = 1; r < runs.size(); ++r) {
      if (!(runs[r] == runs[0])) identical = false;
    }
    std::printf("bit-identity: %zu mixed decisions x {off,on} x pools {1,4,8}: %s\n", decisions,
                identical ? "all identical" : "DIVERGED");
    artifact.field("identity_decisions", decisions).field_bool("decisions_bit_identical",
                                                               identical);
    if (!identical) {
      std::printf("FAIL: observability perturbed decisions\n");
      failed = true;
    }
  }

  // ---- Section 2: serve-path overhead bars.
  // Every bar compares two configurations of the same serve loop, built up
  // front and timed in interleaved best-of trials (see interleaved_best_of).
  //
  // DT loop (DT-only requests, pool 1, 64 sessions; metrics counters are
  // always on — they are part of the serving fabric):
  //   0 off      — tracing off, no tap;
  //   1 tracing  — tracing fully on: the < 2% observability bar (1 vs 0);
  //   2 capture  — telemetry tap recording DT decisions 2-in-32: the < 5%
  //                capture bar (2 vs 0);
  //   3 timing   — capture plus 1-in-32 sampled DT timing for the tap's
  //                latency histogram: the < 5% timing-increment bar (3 vs
  //                2), so the timestamps must fit inside the capture budget.
  // Store loop (1-in-4 MBRL traffic, pool 2, 16 sessions, full-capture tap
  // drained every 256 decisions — the adaptation pump's cadence — inline,
  // so the delta is exactly the durability work):
  //   0 tap      — drain the tap in memory and discard;
  //   1 durable  — drain through a TelemetryStore (serialize + CRC +
  //                buffered write): the < 5% durable-logging bar (1 vs 0).
  {
    const std::size_t trials = smoke ? 3 : 9;
    const auto overhead = [](double base_secs, double secs) {
      return base_secs > 0.0 ? secs / base_secs - 1.0 : 1.0;
    };
    const auto gate = [&](const char* what, double fraction, double bar) {
      if (!smoke && fraction >= bar) {
        std::printf("FAIL: %s overhead %.2f%% exceeds the %.0f%% bar\n", what, 100.0 * fraction,
                    100.0 * bar);
        failed = true;
      }
    };

    const std::size_t dt_decisions = smoke ? 20000 : 200000;
    std::vector<std::unique_ptr<Stack>> dt_stacks;
    for (int mode = 0; mode < 4; ++mode) {
      serve::SchedulerConfig config;
      std::shared_ptr<adapt::TelemetryLog> tap;
      if (mode >= 2) {
        adapt::TelemetryConfig telemetry;
        telemetry.shards = 4;
        telemetry.capacity_per_shard = 1024;  // cache-resident ring
        telemetry.dt_sample_period = 32;
        tap = std::make_shared<adapt::TelemetryLog>(telemetry);
        if (mode == 3) config.dt_timing_sample_period = 32;
      }
      dt_stacks.push_back(std::make_unique<Stack>(toy_policy, toy_model, toy_rs, /*threads=*/1,
                                                  /*n_sessions=*/64, config, tap));
    }
    const std::vector<double> dt_secs = interleaved_best_of(4, trials, [&](std::size_t mode) {
      if (mode == 1) {
        trace.enable();
      } else {
        trace.disable();
      }
      const Stack& stack = *dt_stacks[mode];
      for (std::size_t i = 0; i < dt_decisions; ++i) {
        stack.scheduler->serve(stack.request(i, serve::RequestKind::kDtPolicy, 0));
      }
    });
    trace.disable();
    trace.clear();

    control::RandomShootingConfig store_rs;
    store_rs.samples = smoke ? 16 : 32;
    store_rs.horizon = toy_rs.horizon;
    const std::size_t store_decisions = smoke ? 4000 : 40000;
    const std::size_t cadence = 256;
    std::vector<std::unique_ptr<Stack>> store_stacks;
    for (int mode = 0; mode < 2; ++mode) {
      store_stacks.push_back(std::make_unique<Stack>(
          toy_policy, toy_model, store_rs, /*threads=*/2, /*n_sessions=*/16,
          serve::SchedulerConfig{}, std::make_shared<adapt::TelemetryLog>()));
    }
    const std::filesystem::path store_dir =
        std::filesystem::temp_directory_path() / "verihvac_obs_overhead_store";
    std::filesystem::remove_all(store_dir);
    adapt::TelemetryStoreConfig store_config;
    store_config.directory = store_dir.string();  // the serve loop pumps the store
    adapt::TelemetryStore store(store_stacks[1]->tap, store_config);
    std::vector<adapt::TelemetryRecord> discarded;
    const std::vector<double> store_secs =
        interleaved_best_of(2, trials, [&](std::size_t mode) {
          const Stack& stack = *store_stacks[mode];
          for (std::size_t i = 0; i < store_decisions; ++i) {
            const auto kind = i % 4 == 0 ? serve::RequestKind::kMbrlFallback
                                         : serve::RequestKind::kDtPolicy;
            stack.scheduler->serve(stack.request(i, kind, store_rs.horizon));
            if (i % cadence == cadence - 1) {
              if (mode == 0) {
                discarded.clear();
                stack.tap->drain(discarded);
              } else {
                store.pump_once();
              }
            }
          }
        });
    store.stop();
    std::filesystem::remove_all(store_dir);

    const auto dt_rate = [&](std::size_t mode) {
      return static_cast<double>(dt_decisions) / dt_secs[mode];
    };
    const auto store_rate = [&](std::size_t mode) {
      return static_cast<double>(store_decisions) / store_secs[mode];
    };
    const double tracing = overhead(dt_secs[0], dt_secs[1]);
    const double capture = overhead(dt_secs[0], dt_secs[2]);
    const double timing = overhead(dt_secs[2], dt_secs[3]);
    const double durable = overhead(store_secs[0], store_secs[1]);
    std::printf("DT loop: %.0f/s off | %.0f/s tracing on (%.2f%%) | %.0f/s capture 2-in-32 "
                "(%.2f%%) | %.0f/s +1-in-32 timing (%.2f%% increment)\n",
                dt_rate(0), dt_rate(1), 100.0 * tracing, dt_rate(2), 100.0 * capture,
                dt_rate(3), 100.0 * timing);
    std::printf("store loop: %.0f/s in-memory tap | %.0f/s + durable store (%.2f%%)\n",
                store_rate(0), store_rate(1), 100.0 * durable);
    artifact.field("dt_obs_off_per_sec", dt_rate(0))
        .field("dt_tracing_on_per_sec", dt_rate(1))
        .field("dt_capture_per_sec", dt_rate(2))
        .field("dt_capture_timing_per_sec", dt_rate(3))
        .field("obs_overhead_fraction", tracing)
        .field("capture_overhead_fraction", capture)
        .field("timing_increment_fraction", timing)
        .field("serve_per_sec_tap", store_rate(0))
        .field("serve_per_sec_durable", store_rate(1))
        .field("durable_overhead_fraction", durable);
    gate("observability (tracing on)", tracing, 0.02);
    gate("telemetry capture (2-in-32)", capture, 0.05);
    gate("sampled timing increment", timing, 0.05);
    gate("durable logging", durable, 0.05);
  }

  // ---- Section 3: the adaptation generation under tracing.
  // A toy serving stack's plant degrades; the controller detects drift
  // and runs one full generation to a certified hot-swap. The captured
  // trace must cover every stage with non-zero wall time.
  {
    const auto model = loop_model();
    adapt::AdaptationConfig config;
    config.drift.ph_delta = 0.01;
    config.drift.ph_lambda = 0.5;
    config.drift.min_samples = 16;
    config.min_transitions = 48;
    config.fine_tune_epochs = smoke ? 10 : 20;
    config.probabilistic_samples = smoke ? 150 : 300;
    // Mechanism under test is the trace, not paper-grade safety: a wide
    // comfort band keeps toy-plant certification stable (the adaptation
    // bench drives the real thresholds on real pipeline assets).
    config.criteria.comfort = {17.0, 26.0};
    config.criteria.safe_probability_threshold = 0.5;
    config.viper.iterations = 2;
    config.viper.steps_per_iteration = smoke ? 12 : 24;
    config.viper.mc_repeats = 1;
    config.teacher_rs = {12, 3, 0.99};
    config.seed = 99;

    const auto log = std::make_shared<adapt::TelemetryLog>();
    auto registry = std::make_shared<serve::PolicyRegistry>();
    auto sessions = std::make_shared<serve::SessionManager>();
    const std::uint64_t base_version = registry->install("toy", toy_policy);
    serve::RequestScheduler scheduler(serve::SchedulerConfig{}, registry, sessions,
                                      control::RandomShootingConfig{16, 3, 0.99},
                                      control::ActionSpace{}, env::RewardConfig{},
                                      pool_with_threads(2));
    scheduler.install_model("toy", model);
    scheduler.set_tap(log);
    adapt::AdaptationController controller(config, log, registry, sessions, scheduler,
                                           pool_with_threads(2));
    adapt::ClusterAssets assets;
    assets.model = model;
    assets.env.days = 1;
    controller.register_cluster("toy", assets);

    serve::SessionConfig session_config;
    session_config.policy_key = "toy";
    session_config.seed = 4242;
    const serve::SessionId session = sessions->open(session_config);
    log->register_session(session, session_config.seed, session_config.policy_key);

    std::uint64_t next_decision = 0;
    double zone_temp = 20.4;
    const auto emit = [&](std::size_t n, double (*plant)(const std::vector<double>&,
                                                         const sim::SetpointPair&)) {
      const sim::SetpointPair action{22.5, 26.0};
      const std::string key = "toy";
      for (std::size_t i = 0; i < n; ++i) {
        env::Observation obs = mild_occupied(zone_temp);
        serve::DecisionEvent event;
        event.session = session;
        event.decision_index = next_decision++;
        event.session_seed = 4242;
        event.kind = serve::RequestKind::kDtPolicy;
        event.policy_key = &key;
        event.policy_version = base_version;
        event.action_index = 0;
        event.action = action;
        event.observation = &obs;
        log->on_decision(event);
        zone_temp = plant(env::baseline_schema().to_vector(obs), action);
      }
    };

    trace.clear();
    trace.enable();
    emit(80, bench::toy_plant);  // healthy baseline
    controller.pump();
    emit(120, drifted_plant);  // the plant degrades under the same stack
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t attempts = controller.pump();
    const double generation_seconds = seconds_since(t0);
    trace.disable();

    const auto history = controller.history();
    const bool promoted =
        !history.empty() && history.back().promoted && history.back().certified;

    const std::vector<obs::SpanRecord> spans = trace.snapshot();
    const char* stages[] = {"adapt.drift_alarm", "adapt.fine_tune", "adapt.redistill",
                            "adapt.recertify",   "adapt.shadow_gate", "adapt.hot_swap",
                            "adapt.generation"};
    std::map<std::string, std::uint64_t> stage_ns;
    for (const obs::SpanRecord& span : spans) stage_ns[span.name] += span.duration_ns;
    bool covered = attempts == 1 && promoted;
    std::printf("adaptation generation: %zu attempt(s), promoted=%d, %.1fs, %zu spans\n",
                attempts, promoted ? 1 : 0, generation_seconds, spans.size());
    for (const char* stage : stages) {
      const std::uint64_t ns = stage_ns.count(stage) ? stage_ns[stage] : 0;
      std::printf("  %-18s %10.3f ms%s\n", stage, static_cast<double>(ns) / 1e6,
                  ns > 0 ? "" : "  <-- MISSING");
      if (ns == 0) covered = false;
      std::string field_name = stage;
      std::replace(field_name.begin(), field_name.end(), '.', '_');
      artifact.field(field_name + "_ms", static_cast<double>(ns) / 1e6);
    }
    artifact.field_bool("trace_covers_generation", covered)
        .field("trace_spans", spans.size())
        .field("generation_seconds", generation_seconds);
    if (!covered) {
      std::printf("FAIL: trace does not cover the full adaptation generation\n");
      failed = true;
    }

    // Artifacts for CI: the run's Chrome trace + metrics exposition.
    const std::string trace_path = bench::artifact_path("obs_adaptation_trace.json");
    trace.write_chrome_trace(trace_path);
    const std::string metrics_path = bench::artifact_path("obs_metrics_snapshot.prom");
    {
      std::ofstream out(metrics_path);
      out << obs::MetricsRegistry::global().expose_text();
    }
    trace.clear();
    std::printf("wrote %s and %s\n", trace_path.c_str(), metrics_path.c_str());
  }

  const std::string path = bench::write_bench_json("BENCH_obs.json", artifact);
  std::printf("\nwrote %s\n", path.c_str());
  return failed ? 1 : 0;
}
