// Bench — fleet-serving throughput and latency (ISSUE 4 acceptance).
//
// Measures the serving subsystem under its three traffic shapes:
//
//   * DT fast path: registry lookup + one tree walk per decision. The
//     deployable Table-3 artifact; acceptance asks >= 1e5 decisions/s
//     (the dev box does orders of magnitude more).
//   * MBRL fallback: random-shooting decisions, scalar per-session
//     serving vs cross-session micro-batched serving across thread
//     counts — the batching win is coalescing many sessions' candidates
//     into the shared pool's lock-step batched rollouts.
//   * Mixed fleet: FleetHarness drives buildings x presets through the
//     scheduler (DT majority + MBRL fallback minority), micro-batching
//     off vs on.
//
// A bit-equality gate runs first: micro-batched decisions must equal the
// per-session scalar reference at 1/4/8 threads before any number counts.
// Emits BENCH_serve.json (one row per measured point with p50/p95/p99).
//
// Usage: fleet_serving [--smoke]
//   --smoke: tiny workload for CI; equivalence gate + JSON emission, no
//            throughput assertion (shared runners are too noisy).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
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

/// A fresh serving stack (registry + sessions + scheduler) over the shared
/// toy assets. Sessions are re-opened per stack so decision streams restart
/// at 0 — required for the equivalence comparisons.
struct Stack {
  std::shared_ptr<serve::PolicyRegistry> registry = std::make_shared<serve::PolicyRegistry>();
  std::shared_ptr<serve::SessionManager> sessions = std::make_shared<serve::SessionManager>();
  std::unique_ptr<serve::RequestScheduler> scheduler;
  std::vector<serve::SessionId> ids;

  Stack(const std::shared_ptr<const core::DtPolicy>& policy,
        const std::shared_ptr<const dyn::DynamicsModel>& model,
        const control::RandomShootingConfig& rs, std::size_t threads, std::size_t n_sessions,
        serve::SchedulerConfig config = {}) {
    registry->install("toy", policy);
    scheduler = std::make_unique<serve::RequestScheduler>(
        config, registry, sessions, rs, control::ActionSpace{}, env::RewardConfig{},
        pool_with_threads(threads));
    scheduler->install_model("toy", model);
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

struct BenchRow {
  std::string traffic;
  std::string mode;
  std::size_t threads = 0;
  std::size_t decisions = 0;
  double decisions_per_sec = 0.0;
  serve::LatencyStats latency;
};

void print_row(const BenchRow& row) {
  std::printf("%-6s %-9s %8zu %10zu %14.0f %10.1f %10.1f %10.1f\n", row.traffic.c_str(),
              row.mode.c_str(), row.threads, row.decisions, row.decisions_per_sec,
              row.latency.p50_us, row.latency.p95_us, row.latency.p99_us);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  control::RandomShootingConfig rs;
  rs.samples = static_cast<std::size_t>(env_or_long("VERI_HVAC_RS_SAMPLES", smoke ? 16 : 64));
  rs.horizon = static_cast<std::size_t>(env_or_long("VERI_HVAC_RS_HORIZON", smoke ? 3 : 5));

  const std::size_t dt_sessions = smoke ? 32 : 256;
  const std::size_t dt_decisions = smoke ? 2000 : 200000;
  const std::size_t mbrl_sessions = smoke ? 8 : 32;
  const std::size_t mbrl_decisions = smoke ? 16 : 256;

  std::printf("== fleet_serving — multi-building session serving: DT fast path vs "
              "micro-batched MBRL ==\n");
  std::printf("rs: samples=%zu horizon=%zu%s\n\n", rs.samples, rs.horizon,
              smoke ? " (smoke)" : "");

  const auto policy = bench::toy_decision_policy();
  const auto model = bench::toy_dynamics_model();

  // ---- Equivalence gate: micro-batched == per-session scalar, 1/4/8 threads.
  {
    const std::size_t n = smoke ? 12 : 48;
    Stack reference(policy, model, rs, /*threads=*/1, mbrl_sessions);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      expected.push_back(
          reference.scheduler->serve(reference.request(i, serve::RequestKind::kMbrlFallback,
                                                       rs.horizon))
              .action_index);
    }
    for (const std::size_t threads : {1u, 4u, 8u}) {
      Stack stack(policy, model, rs, threads, mbrl_sessions);
      std::vector<serve::ControlRequest> requests;
      for (std::size_t i = 0; i < n; ++i) {
        requests.push_back(stack.request(i, serve::RequestKind::kMbrlFallback, rs.horizon));
      }
      const auto decisions = stack.scheduler->serve_batch(requests);
      for (std::size_t i = 0; i < n; ++i) {
        if (decisions[i].action_index != expected[i]) {
          std::printf("FAIL: micro-batched decision %zu diverges from scalar serving at %zu "
                      "threads (%zu vs %zu)\n",
                      i, threads, decisions[i].action_index, expected[i]);
          return 1;
        }
      }
    }
    std::printf("equivalence: micro-batched decisions bit-identical to scalar serving "
                "(%zu requests x {1,4,8} threads)\n\n",
                n);
  }

  std::vector<BenchRow> rows;
  std::printf("%-6s %-9s %8s %10s %14s %10s %10s %10s\n", "traffic", "mode", "threads",
              "decisions", "decisions/s", "p50 us", "p95 us", "p99 us");

  // ---- DT fast path: the 1127x artifact behind a registry lookup.
  double dt_rate = 0.0;
  {
    Stack stack(policy, model, rs, /*threads=*/1, dt_sessions);
    std::vector<double> latencies;
    latencies.reserve(dt_decisions);
    for (std::size_t i = 0; i < dt_decisions; ++i) {
      const serve::ControlRequest request = stack.request(i, serve::RequestKind::kDtPolicy, 0);
      const auto t0 = std::chrono::steady_clock::now();
      stack.scheduler->serve(request);
      latencies.push_back(seconds_since(t0));
    }
    BenchRow row;
    row.traffic = "dt";
    row.mode = "fastpath";
    row.threads = 1;
    row.decisions = dt_decisions;
    row.latency = serve::summarize_latencies(latencies);
    row.decisions_per_sec = row.latency.decisions_per_sec();
    dt_rate = row.decisions_per_sec;
    rows.push_back(row);
    print_row(row);
  }

  // ---- MBRL fallback: scalar per-session vs cross-session micro-batched.
  double mbrl_scalar_8t = 0.0;
  double mbrl_batched_8t = 0.0;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    for (const bool batched : {false, true}) {
      Stack stack(policy, model, rs, threads, mbrl_sessions);
      std::vector<double> latencies;
      const auto t0 = std::chrono::steady_clock::now();
      if (batched) {
        // Whole cohorts coalesce: cross-session batches of max_batch.
        const std::size_t batch_size = std::min<std::size_t>(32, mbrl_decisions);
        std::size_t served = 0;
        while (served < mbrl_decisions) {
          const std::size_t n = std::min(batch_size, mbrl_decisions - served);
          std::vector<serve::ControlRequest> requests;
          for (std::size_t i = 0; i < n; ++i) {
            requests.push_back(
                stack.request(served + i, serve::RequestKind::kMbrlFallback, rs.horizon));
          }
          const auto tb = std::chrono::steady_clock::now();
          stack.scheduler->serve_batch(requests);
          const double batch_seconds = seconds_since(tb);
          for (std::size_t i = 0; i < n; ++i) latencies.push_back(batch_seconds);
          served += n;
        }
      } else {
        for (std::size_t i = 0; i < mbrl_decisions; ++i) {
          const serve::ControlRequest request =
              stack.request(i, serve::RequestKind::kMbrlFallback, rs.horizon);
          const auto tr = std::chrono::steady_clock::now();
          stack.scheduler->serve(request);
          latencies.push_back(seconds_since(tr));
        }
      }
      const double wall = seconds_since(t0);
      BenchRow row;
      row.traffic = "mbrl";
      row.mode = batched ? "batched" : "scalar";
      row.threads = threads;
      row.decisions = mbrl_decisions;
      row.latency = serve::summarize_latencies(latencies);
      row.decisions_per_sec = static_cast<double>(mbrl_decisions) / wall;
      if (threads == 8 && batched) mbrl_batched_8t = row.decisions_per_sec;
      if (threads == 8 && !batched) mbrl_scalar_8t = row.decisions_per_sec;
      rows.push_back(row);
      print_row(row);
    }
  }

  // ---- Mixed fleet traffic through the harness (async queue).
  double mixed_unbatched = 0.0;
  double mixed_batched = 0.0;
  for (const bool batched : {false, true}) {
    serve::FleetConfig config;
    config.climates = {"Pittsburgh"};
    config.presets = {{"baseline", 1.0}};
    config.buildings_per_cell = smoke ? 6 : 24;
    config.mbrl_fraction = 0.25;
    config.steps = smoke ? 3 : 8;
    config.days = 1;
    config.rs = rs;
    config.async = true;
    // The cohort is submitted back-to-back: whatever a shard has queued
    // when its worker comes back rides one batch (unbatched: one each).
    config.scheduler.max_batch = batched ? 64 : 1;
    const serve::FleetAssets assets{policy, model};
    serve::FleetHarness harness(
        config, [&assets](const std::string&, const serve::FleetPreset&) { return assets; },
        pool_with_threads(8));
    const serve::FleetReport report = harness.run();
    const double rate =
        static_cast<double>(report.dt_decisions + report.mbrl_decisions) / report.wall_seconds;
    if (batched) {
      mixed_batched = rate;
    } else {
      mixed_unbatched = rate;
    }
    BenchRow row;
    row.traffic = "mixed";
    row.mode = batched ? "batched" : "unbatched";
    row.threads = 8;
    row.decisions = report.dt_decisions + report.mbrl_decisions;
    row.latency = report.mbrl_latency;
    row.decisions_per_sec = rate;
    rows.push_back(row);
    print_row(row);
  }

  const double mbrl_win = mbrl_scalar_8t > 0.0 ? mbrl_batched_8t / mbrl_scalar_8t : 0.0;
  const double mixed_win = mixed_unbatched > 0.0 ? mixed_batched / mixed_unbatched : 0.0;
  std::printf("\nDT fast path:              %.0f decisions/s\n", dt_rate);
  std::printf("MBRL batched/scalar @ 8t:  %.2fx\n", mbrl_win);
  std::printf("mixed batched/unbatched:   %.2fx\n", mixed_win);

  // One JSON artifact for the perf trajectory (BENCH_serve.json).
  std::vector<bench::JsonObject> json_rows;
  for (const BenchRow& r : rows) {
    bench::JsonObject row;
    row.field("traffic", r.traffic)
        .field("mode", r.mode)
        .field("threads", r.threads)
        .field("decisions", r.decisions)
        .field("decisions_per_sec", r.decisions_per_sec)
        .field("p50_us", r.latency.p50_us)
        .field("p95_us", r.latency.p95_us)
        .field("p99_us", r.latency.p99_us);
    json_rows.push_back(std::move(row));
  }
  bench::JsonObject artifact;
  artifact.field("bench", std::string("fleet_serving"))
      .field("rs_samples", rs.samples)
      .field("rs_horizon", rs.horizon)
      .field_bool("smoke", smoke)
      .field_array("rows", json_rows)
      .field("dt_decisions_per_sec", dt_rate)
      .field("mbrl_batched_over_scalar_at_8_threads", mbrl_win)
      .field("mixed_batched_over_unbatched", mixed_win);
  const std::string path = bench::write_bench_json("BENCH_serve.json", artifact);
  std::printf("wrote %s\n", path.c_str());

  if (!smoke && dt_rate < 1e5) {
    std::printf("FAIL: DT fast path %.0f decisions/s below the 1e5 acceptance bar\n", dt_rate);
    return 1;
  }
  return 0;
}
