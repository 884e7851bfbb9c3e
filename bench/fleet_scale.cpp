// Bench — fleet-scale soak: 10^5+ concurrent sessions through the
// sharded scheduler, with live adaptation contending for the shared pool.
//
// Three sections:
//
//   1. Equivalence gate. The sharded queue path (async submit, per-shard
//      workers coalescing their backlog) must produce decisions
//      bit-identical to the per-session scalar reference at engine pools
//      of 1/4/8 threads. No number below counts unless this passes:
//      batching is a latency feature, never a decision feature.
//
//   2. Sampled DT timing overhead. SchedulerConfig::dt_timing_sample_period
//      times 1-in-P DT decisions for the tap (p50/p99 telemetry without
//      paying two clock reads per ~150 ns decision). Measured as untapped
//      vs capture+sampled-timing decision rates over the same workload,
//      interleaved best-of-trials; the combined cost must stay inside the
//      <5% capture-overhead budget (full mode; smoke runners are too
//      noisy to gate).
//
//   3. Soak. A synthetic session population is admitted in staggered
//      waves (10^5+ concurrent at peak, full scale), served DT-heavy with
//      sampled caller-side timing plus async MBRL cohorts, and idle
//      waves are evicted — while, concurrently,
//      an env-backed climates x presets fleet serves real plants through
//      its own scheduler, degrades mid-run, and the adaptation controller
//      detects the drift and retrains on the SAME shared TaskPool the
//      soak serving uses. Gates: peak concurrent sessions, p99 latency,
//      decisions/s/core, zero dropped decisions, >= 1 drift event and
//      >= 1 adaptation attempt under contention.
//
// Emits BENCH_fleet_scale.json. --smoke shrinks every workload for CI and
// skips the noise-sensitive gates (overhead, latency, throughput); the
// exact gates (equivalence, peak sessions, drops, drift/adaptation
// counters) hold at any scale.
//
// Latency/throughput bars are env-overridable for slower runners:
//   VERI_HVAC_FLEET_DT_P99_US      (default 200)
//   VERI_HVAC_FLEET_MBRL_P99_US    (default 100000)
//   VERI_HVAC_FLEET_RATE_PER_CORE  (default 2e4 decisions/s/core)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/adaptation_controller.hpp"
#include "bench_common.hpp"
#include "common/config.hpp"
#include "serve/fleet_harness.hpp"

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

std::vector<env::Disturbance> forecast_for(const env::Observation& obs, std::size_t horizon) {
  env::Disturbance d;
  d.weather = obs.weather;
  d.occupants = obs.occupants;
  return std::vector<env::Disturbance>(horizon, d);
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
  std::vector<serve::SessionId> ids;

  Stack(const std::shared_ptr<const core::DtPolicy>& policy,
        const std::shared_ptr<const dyn::DynamicsModel>& model,
        const control::RandomShootingConfig& rs, std::size_t threads, std::size_t n_sessions,
        serve::SchedulerConfig config = {},
        const std::shared_ptr<serve::DecisionTap>& tap = nullptr) {
    registry->install("toy", policy);
    scheduler = std::make_unique<serve::RequestScheduler>(
        config, registry, sessions, rs, control::ActionSpace{}, env::RewardConfig{},
        pool_with_threads(threads));
    scheduler->install_model("toy", model);
    if (tap != nullptr) scheduler->set_tap(tap);
    for (std::size_t s = 0; s < n_sessions; ++s) {
      serve::SessionConfig session;
      session.policy_key = "toy";
      session.seed = 5000 + 13 * s;
      ids.push_back(sessions->open(session));
    }
  }

  serve::ControlRequest request(std::size_t i, serve::RequestKind kind,
                                std::size_t horizon) const {
    serve::ControlRequest request;
    request.session = ids[i % ids.size()];
    request.kind = kind;
    request.observation = observation_for(i);
    if (kind == serve::RequestKind::kMbrlFallback) {
      request.forecast = forecast_for(request.observation, horizon);
    }
    return request;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("== fleet_scale — 10^5+ session soak through the sharded "
              "scheduler, adaptation contending ==\n%s\n\n",
              smoke ? "(smoke scale)" : "(soak scale)");

  const auto policy = bench::toy_decision_policy();
  const auto model = bench::toy_dynamics_model();
  control::RandomShootingConfig rs;
  rs.samples = smoke ? 16 : 64;
  rs.horizon = smoke ? 3 : 5;

  bench::JsonObject artifact;
  artifact.field("bench", std::string("fleet_scale")).field_bool("smoke", smoke);
  bool failed = false;

  // ---- Section 1: sharded queue serving == scalar reference.
  {
    const std::size_t n = smoke ? 24 : 64;
    Stack reference(policy, model, rs, /*threads=*/1, /*n_sessions=*/8);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      expected.push_back(
          reference.scheduler->serve(reference.request(i, serve::RequestKind::kMbrlFallback,
                                                       rs.horizon))
              .action_index);
    }
    for (const std::size_t threads : {1u, 4u, 8u}) {
      serve::SchedulerConfig config;
      config.max_batch = 8;
      Stack stack(policy, model, rs, threads, /*n_sessions=*/8, config);
      stack.scheduler->start();
      std::vector<std::future<serve::ControlDecision>> futures;
      for (std::size_t i = 0; i < n; ++i) {
        futures.push_back(stack.scheduler->submit(
            stack.request(i, serve::RequestKind::kMbrlFallback, rs.horizon)));
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (futures[i].get().action_index != expected[i]) {
          std::printf("FAIL: queue-batched decision %zu diverges from scalar serving "
                      "at %zu threads\n",
                      i, threads);
          return 1;
        }
      }
      stack.scheduler->stop();
    }
    std::printf("equivalence: queue-batched sharded decisions bit-identical to scalar "
                "serving (%zu requests x {1,4,8} threads)\n\n",
                n);
  }

  // ---- Section 2: sampled DT timing overhead (1-in-32 + 2-in-32 capture).
  {
    const std::size_t decisions = smoke ? 20000 : 200000;
    const std::size_t trials = smoke ? 3 : 9;
    // Mode 0: untapped. Mode 1: telemetry capture alone (2-in-32 record
    // sampling — the base cost adaptation_loop already gates under 5%).
    // Mode 2: capture plus 1-in-32 sampled timing — the soak's full
    // telemetry story. The gate here is the *timing increment* (mode 2
    // over mode 1): the new timestamps must fit inside the existing
    // capture-overhead budget, not re-litigate the capture cost itself.
    std::vector<std::unique_ptr<Stack>> stacks;
    for (int mode = 0; mode < 3; ++mode) {
      serve::SchedulerConfig config;
      std::shared_ptr<serve::DecisionTap> tap;
      if (mode >= 1) {
        adapt::TelemetryConfig telemetry;
        telemetry.shards = 4;
        telemetry.capacity_per_shard = 1024;
        telemetry.dt_sample_period = 32;
        tap = std::make_shared<adapt::TelemetryLog>(telemetry);
        if (mode == 2) config.dt_timing_sample_period = 32;
      }
      stacks.push_back(std::make_unique<Stack>(policy, model, rs, /*threads=*/1,
                                               /*n_sessions=*/64, config, tap));
    }
    std::vector<double> best_secs(stacks.size(), 0.0);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      // Rotate which mode leads each round: a fixed order would fold any
      // slow drift of the box (frequency, background load) into a
      // systematic bias against whichever mode always runs last.
      for (std::size_t slot = 0; slot < stacks.size(); ++slot) {
        const std::size_t mode = (trial + slot) % stacks.size();
        Stack& stack = *stacks[mode];
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < decisions; ++i) {
          stack.scheduler->serve(stack.request(i, serve::RequestKind::kDtPolicy, 0));
        }
        const double secs = seconds_since(t0);
        if (trial == 0 || secs < best_secs[mode]) best_secs[mode] = secs;
      }
    }
    const double untapped = static_cast<double>(decisions) / best_secs[0];
    const double capture = static_cast<double>(decisions) / best_secs[1];
    const double sampled = static_cast<double>(decisions) / best_secs[2];
    const double capture_overhead = capture > 0.0 ? untapped / capture - 1.0 : 1.0;
    const double timing_overhead = sampled > 0.0 ? capture / sampled - 1.0 : 1.0;
    std::printf("sampled timing: DT %.0f/s untapped | %.0f/s capture 2-in-32 (%.1f%% "
                "overhead) | %.0f/s +1-in-32 timing (%.1f%% timing increment)\n\n",
                untapped, capture, 100.0 * capture_overhead, sampled,
                100.0 * timing_overhead);
    artifact.field("dt_untapped_per_sec", untapped)
        .field("dt_capture_per_sec", capture)
        .field("dt_sampled_timing_per_sec", sampled)
        .field("capture_overhead_fraction", capture_overhead)
        .field("sampled_timing_overhead_fraction", timing_overhead);
    if (!smoke && timing_overhead >= 0.05) {
      std::printf("FAIL: sampled timing increment %.2f%% exceeds the 5%% bar\n",
                  100.0 * timing_overhead);
      failed = true;
    }
  }

  // ---- Section 3: the soak.
  {
    // One physical pool shared by the soak scheduler, the env-backed
    // fleet's scheduler AND the adaptation controller: drift-triggered
    // retraining steals the same workers that serve decisions, which is
    // exactly the contention the SLO gates must survive.
    const auto pool = pool_with_threads(8);

    // --- The env-backed fleet: real plants across climates x presets,
    // degraded mid-run, feeding telemetry to the adaptation controller.
    serve::FleetConfig fleet;
    fleet.climates = smoke ? std::vector<std::string>{"Pittsburgh", "Tucson"}
                           : std::vector<std::string>{"Pittsburgh", "Tucson", "NewYork"};
    fleet.presets = smoke ? std::vector<serve::FleetPreset>{{"baseline", 1.0}}
                          : std::vector<serve::FleetPreset>{{"baseline", 1.0},
                                                            {"derated", 0.85}};
    fleet.buildings_per_cell = smoke ? 2 : 3;
    fleet.mbrl_fraction = 0.34;
    fleet.steps = smoke ? 40 : 96;
    fleet.days = 2;
    fleet.seed = 2026;
    fleet.rs = rs;
    fleet.async = true;
    serve::FleetDriftEvent drift;
    drift.at_step = smoke ? 16 : 32;
    drift.degradation.hvac_capacity_factor = 0.45;
    drift.degradation.heating_efficiency_factor = 0.8;
    drift.degradation.envelope_leak_factor = 1.4;
    fleet.drift.push_back(drift);

    adapt::TelemetryConfig telemetry;
    telemetry.shards = 4;
    telemetry.capacity_per_shard = 16384;  // holds the whole fleet trace
    const auto log = std::make_shared<adapt::TelemetryLog>(telemetry);
    fleet.tap = log;
    fleet.on_session_open = [&log](serve::SessionId id, const serve::SessionConfig& config) {
      log->register_session(id, config.seed, config.policy_key);
    };

    const serve::FleetAssets cell_assets{policy, model};
    serve::FleetHarness harness(
        fleet, [&cell_assets](const std::string&, const serve::FleetPreset&) {
          return cell_assets;
        },
        pool);

    // Adaptation knobs sized for the soak: the gate is that drift fires
    // and retraining runs (and contends) — adaptation_loop gates recovery
    // quality. The toy model's baseline mismatch against the real plant
    // is absorbed by Page-Hinkley's calibrated mean; the injected
    // degradation shifts residuals well past it.
    adapt::AdaptationConfig adaptation;
    adaptation.drift.ph_delta = 0.02;
    adaptation.drift.ph_lambda = smoke ? 2.0 : 3.0;
    adaptation.drift.min_samples = smoke ? 24 : 64;
    adaptation.min_transitions = smoke ? 40 : 120;
    adaptation.fine_tune_epochs = 8;
    adaptation.probabilistic_samples = 120;
    adaptation.viper.iterations = 1;
    adaptation.viper.steps_per_iteration = 16;
    adaptation.viper.mc_repeats = 1;
    adaptation.teacher_rs = control::RandomShootingConfig{16, 3, 0.99};
    adaptation.max_generations = 1;
    adaptation.poll_interval = std::chrono::milliseconds(25);
    adaptation.seed = 2027;
    adapt::AdaptationController controller(adaptation, log, harness.registry_ptr(),
                                           harness.sessions_ptr(), harness.scheduler(), pool);
    for (const std::string& climate : fleet.climates) {
      for (const serve::FleetPreset& preset : fleet.presets) {
        adapt::ClusterAssets cluster;
        cluster.model = model;
        cluster.env.climate = weather::profile_by_name(climate);
        cluster.env.days = 2;
        cluster.env.hvac_capacity_scale = preset.hvac_scale;
        controller.register_cluster(climate + "/" + preset.name, cluster);
      }
    }
    controller.start();

    // --- The synthetic soak population: its own serving stack (sharded
    // scheduler over the SAME pool), admitted in waves.
    const std::size_t waves = smoke ? 5 : 8;
    const std::size_t sessions_per_wave = static_cast<std::size_t>(
        env_or_long("VERI_HVAC_FLEET_WAVE", smoke ? 5000 : 25000));
    const std::size_t dt_rounds = 2;      ///< DT passes per wave over the working set
    const std::size_t mbrl_cohort = smoke ? 16 : 64;
    const std::size_t latency_sample = 32;  ///< caller-side timing duty cycle

    auto soak_registry = std::make_shared<serve::PolicyRegistry>();
    auto soak_sessions = std::make_shared<serve::SessionManager>();
    serve::SchedulerConfig soak_config;
    soak_config.dt_timing_sample_period = 32;
    soak_registry->install("toy", policy);
    serve::RequestScheduler soak_scheduler(soak_config, soak_registry, soak_sessions, rs,
                                           control::ActionSpace{}, env::RewardConfig{}, pool);
    soak_scheduler.install_model("toy", model);
    soak_scheduler.start();

    // The env fleet runs concurrently on its own thread; its report is
    // collected after the soak loop drains.
    serve::FleetReport fleet_report;
    std::thread fleet_thread([&harness, &fleet_report] { fleet_report = harness.run(); });

    std::vector<std::vector<serve::SessionId>> wave_ids(waves);
    std::vector<double> dt_latencies;
    std::vector<double> mbrl_latencies;
    std::size_t dt_decisions = 0;
    std::size_t mbrl_decisions = 0;
    std::size_t peak_sessions = 0;
    std::size_t evicted_total = 0;
    double serve_seconds = 0.0;
    std::uint64_t last_wave_admissions = 0;

    const auto t_soak = std::chrono::steady_clock::now();
    for (std::size_t wave = 0; wave < waves; ++wave) {
      wave_ids[wave].reserve(sessions_per_wave);
      for (std::size_t s = 0; s < sessions_per_wave; ++s) {
        serve::SessionConfig session;
        session.policy_key = "toy";
        session.seed = 9000 + 31 * (wave * sessions_per_wave + s);
        wave_ids[wave].push_back(soak_sessions->open(session));
      }
      peak_sessions = std::max(peak_sessions, soak_sessions->size());

      // DT traffic over the working set (this wave + the previous one):
      // sampled caller-side timing, full count.
      const std::uint64_t admissions_before = soak_sessions->admission_clock();
      const auto t_wave = std::chrono::steady_clock::now();
      for (std::size_t round = 0; round < dt_rounds; ++round) {
        for (std::size_t w = wave == 0 ? 0 : wave - 1; w <= wave; ++w) {
          for (std::size_t s = 0; s < wave_ids[w].size(); ++s) {
            serve::ControlRequest request;
            request.session = wave_ids[w][s];
            request.kind = serve::RequestKind::kDtPolicy;
            request.observation = observation_for(dt_decisions);
            if (dt_decisions % latency_sample == 0) {
              const auto t0 = std::chrono::steady_clock::now();
              soak_scheduler.serve(request);
              dt_latencies.push_back(seconds_since(t0));
            } else {
              soak_scheduler.serve(request);
            }
            ++dt_decisions;
          }
        }
      }

      // Async MBRL cohort from this wave's sessions.
      std::vector<std::future<serve::ControlDecision>> futures;
      std::vector<std::chrono::steady_clock::time_point> submitted;
      futures.reserve(mbrl_cohort);
      submitted.reserve(mbrl_cohort);
      for (std::size_t i = 0; i < mbrl_cohort; ++i) {
        serve::ControlRequest request;
        request.session = wave_ids[wave][i % wave_ids[wave].size()];
        request.kind = serve::RequestKind::kMbrlFallback;
        request.observation = observation_for(mbrl_decisions + i);
        request.forecast = forecast_for(request.observation, rs.horizon);
        submitted.push_back(std::chrono::steady_clock::now());
        futures.push_back(soak_scheduler.submit(std::move(request)));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        futures[i].get();
        mbrl_latencies.push_back(seconds_since(submitted[i]));
        ++mbrl_decisions;
      }
      serve_seconds += seconds_since(t_wave);
      last_wave_admissions = soak_sessions->admission_clock() - admissions_before;

      // Staggered eviction: waves idle for more than ~3 waves of
      // admissions are swept, so the population plateaus instead of
      // growing without bound — the churn a real fleet has.
      if (wave >= 3) {
        evicted_total += soak_sessions->evict_idle(3 * last_wave_admissions);
      }
    }
    const double soak_wall = seconds_since(t_soak);

    fleet_thread.join();
    controller.stop();
    // Drain whatever telemetry the background worker had not reached yet
    // (bounded settle — detection is deterministic, its timing is not).
    for (int i = 0; i < 10 && controller.stats().drift_events == 0; ++i) controller.pump();
    controller.pump();
    const adapt::AdaptationController::Stats adapt_stats = controller.stats();

    const serve::LatencyStats dt_lat = serve::summarize_latencies(dt_latencies);
    const serve::LatencyStats mbrl_lat = serve::summarize_latencies(mbrl_latencies);
    soak_scheduler.stop();
    const std::size_t pool_threads = pool->thread_count();
    const double rate = serve_seconds > 0.0
                            ? static_cast<double>(dt_decisions + mbrl_decisions) / serve_seconds
                            : 0.0;
    const double rate_per_core = rate / static_cast<double>(pool_threads);

    std::printf("soak: peak %zu sessions (%zu opened, %zu evicted), %zu DT + %zu MBRL "
                "decisions in %.2fs serving (%.2fs wall)\n",
                peak_sessions, waves * sessions_per_wave, evicted_total, dt_decisions,
                mbrl_decisions, serve_seconds, soak_wall);
    std::printf("  DT   p50 %8.1fus p99 %8.1fus (sampled 1-in-%zu)\n", dt_lat.p50_us,
                dt_lat.p99_us, latency_sample);
    std::printf("  MBRL p50 %8.1fus p99 %8.1fus\n", mbrl_lat.p50_us, mbrl_lat.p99_us);
    std::printf("  %.0f decisions/s (%.0f/s/core over %zu pool threads)\n", rate,
                rate_per_core, pool_threads);
    std::printf("  fleet: %zu buildings x %zu steps, %zu dropped; drift events %llu, "
                "adaptations %llu attempted / %llu promoted\n",
                fleet_report.buildings, fleet_report.steps, fleet_report.dropped_decisions,
                static_cast<unsigned long long>(adapt_stats.drift_events),
                static_cast<unsigned long long>(adapt_stats.adaptations_attempted),
                static_cast<unsigned long long>(adapt_stats.adaptations_promoted));

    artifact.field("peak_sessions", peak_sessions)
        .field("sessions_opened", waves * sessions_per_wave)
        .field("sessions_evicted", evicted_total)
        .field("dt_decisions", dt_decisions)
        .field("mbrl_decisions", mbrl_decisions)
        .field("dt_p50_us", dt_lat.p50_us)
        .field("dt_p99_us", dt_lat.p99_us)
        .field("mbrl_p50_us", mbrl_lat.p50_us)
        .field("mbrl_p99_us", mbrl_lat.p99_us)
        .field("decisions_per_sec", rate)
        .field("decisions_per_sec_per_core", rate_per_core)
        .field("pool_threads", pool_threads)
        .field("queue_shards", soak_scheduler.queue_shard_count())
        .field("fleet_buildings", fleet_report.buildings)
        .field("fleet_dropped_decisions", fleet_report.dropped_decisions)
        .field("drift_events", static_cast<std::size_t>(adapt_stats.drift_events))
        .field("adaptations_attempted",
               static_cast<std::size_t>(adapt_stats.adaptations_attempted))
        .field("adaptations_promoted",
               static_cast<std::size_t>(adapt_stats.adaptations_promoted))
        .field("soak_wall_seconds", soak_wall);

    // Exact gates (any scale).
    const std::size_t peak_bar = smoke ? 20000 : 100000;
    if (peak_sessions < peak_bar) {
      std::printf("FAIL: peak %zu concurrent sessions below the %zu bar\n", peak_sessions,
                  peak_bar);
      failed = true;
    }
    if (fleet_report.dropped_decisions != 0) {
      std::printf("FAIL: %zu in-flight fleet decisions dropped\n",
                  fleet_report.dropped_decisions);
      failed = true;
    }
    if (adapt_stats.drift_events == 0) {
      std::printf("FAIL: injected degradation was never detected under load\n");
      failed = true;
    }
    if (adapt_stats.adaptations_attempted == 0) {
      std::printf("FAIL: no adaptation ran, so nothing contended with serving\n");
      failed = true;
    }
    // Noise-sensitive gates (full scale only; bars env-overridable).
    if (!smoke) {
      const double dt_p99_bar = env_or_double("VERI_HVAC_FLEET_DT_P99_US", 200.0);
      // MBRL p99 includes retrain contention on the shared pool — the bar
      // is sized for a saturated single-socket box, not an idle one.
      const double mbrl_p99_bar = env_or_double("VERI_HVAC_FLEET_MBRL_P99_US", 100000.0);
      const double rate_bar = env_or_double("VERI_HVAC_FLEET_RATE_PER_CORE", 2e4);
      if (dt_lat.p99_us > dt_p99_bar) {
        std::printf("FAIL: DT p99 %.1fus exceeds the %.0fus bar\n", dt_lat.p99_us, dt_p99_bar);
        failed = true;
      }
      if (mbrl_lat.p99_us > mbrl_p99_bar) {
        std::printf("FAIL: MBRL p99 %.1fus exceeds the %.0fus bar\n", mbrl_lat.p99_us,
                    mbrl_p99_bar);
        failed = true;
      }
      if (rate_per_core < rate_bar) {
        std::printf("FAIL: %.0f decisions/s/core below the %.0f bar\n", rate_per_core,
                    rate_bar);
        failed = true;
      }
    }
  }

  const std::string path = bench::write_bench_json("BENCH_fleet_scale.json", artifact);
  std::printf("\nwrote %s\n", path.c_str());
  return failed ? 1 : 0;
}
