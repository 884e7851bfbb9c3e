// Fleet harness — drives N buildings x climates x presets through the
// serving stack and aggregates comfort/energy/latency.
//
// Each (climate x preset) cell gets its own verified bundle + dynamics
// model (from an injectable asset provider, same pattern as the
// certification campaign); each building in the cell gets its own
// BuildingEnv (per-building weather seed), its own session, and a traffic
// class: the leading mbrl_fraction of every cell runs on the MBRL
// fallback, the rest on the DT fast path. Every control step the harness
// serves the whole fleet — DT decisions inline, MBRL decisions submitted
// together so the scheduler's shard workers coalesce the backlog into
// cross-session batches — applies the returned setpoints to the plants,
// and meters energy, comfort violations and per-request serving latency.
//
// Decisions (hence plant trajectories, energy and violations) are
// deterministic for a fixed config: bit-identical across thread counts and
// across async-vs-inline serving, by the scheduler's determinism contract.
// Only the latency numbers vary run to run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/request_scheduler.hpp"
#include "thermosim/building.hpp"

namespace verihvac::serve {

class FleetHarness;

struct FleetPreset {
  std::string name = "baseline";
  double hvac_scale = 1.0;  ///< env::EnvConfig::hvac_capacity_scale
};

/// The per-cell serving assets: a verified bundle for the fast path and
/// the dynamics model backing the MBRL fallback.
struct FleetAssets {
  std::shared_ptr<const core::DtPolicy> policy;
  std::shared_ptr<const dyn::DynamicsModel> model;
};

/// Called once per (climate x preset) cell, serially, in grid order.
using FleetAssetProvider = std::function<FleetAssets(const std::string& climate,
                                                     const FleetPreset& preset)>;

/// One mid-run drift injection: before fleet step `at_step`, every
/// building's plant degrades in place (HVAC efficiency loss, envelope
/// leak — see sim::Degradation). The serving stack is not told: detecting
/// the change from telemetry is the adaptation loop's job.
struct FleetDriftEvent {
  std::size_t at_step = 0;
  sim::Degradation degradation;
};

struct FleetConfig {
  std::vector<std::string> climates{"Pittsburgh"};
  std::vector<FleetPreset> presets{{"baseline", 1.0}};
  std::size_t buildings_per_cell = 4;
  /// Leading fraction of each cell's buildings served by the MBRL
  /// fallback; the rest take the DT fast path.
  double mbrl_fraction = 0.25;
  /// Control steps per building (clamped to the episode length).
  std::size_t steps = 16;
  int days = 2;  ///< episode length backing the envs
  std::uint64_t seed = 2024;
  /// Fallback optimizer scale (serving-sized, not paper-sized).
  control::RandomShootingConfig rs{64, 5, 0.99};
  SchedulerConfig scheduler;
  /// true: MBRL requests go through the queue + scheduler thread (futures,
  /// micro-batching). false: each is solved inline at submit — the
  /// per-session reference; decisions are identical either way.
  bool async = true;
  /// Mid-run degradation scenario (empty = stationary buildings).
  std::vector<FleetDriftEvent> drift;
  /// Decision tap installed into the scheduler (telemetry capture).
  std::shared_ptr<DecisionTap> tap;
  /// Called once per opened session, after open() — the telemetry log
  /// registers (session, seed, policy key) here, off the serving path.
  std::function<void(SessionId, const SessionConfig&)> on_session_open;
  /// Called after every fleet step with the harness and the step index
  /// just completed — the closed-loop benches pump the adaptation
  /// controller here.
  std::function<void(FleetHarness&, std::size_t)> on_step;
};

struct LatencyStats {
  std::size_t count = 0;
  /// Wall-clock spent serving this class: the measured serving window, not
  /// the latency sum — async MBRL cohort latencies overlap, and summing
  /// them would count overlapping time more than once.
  double serve_seconds = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;

  double decisions_per_sec() const {
    return serve_seconds > 0.0 ? static_cast<double>(count) / serve_seconds : 0.0;
  }
};

/// Fleet-wide plant metrics of one control step (the drift benches window
/// these into pre-drift / degraded / post-adaptation phases).
struct FleetStepMetrics {
  double energy_kwh = 0.0;
  std::size_t occupied_steps = 0;
  std::size_t occupied_violations = 0;
  /// Highest registry version that served a DT decision this step — a
  /// jump marks the hot-swap landing.
  std::uint64_t max_policy_version = 0;

  double violation_rate() const {
    return occupied_steps == 0
               ? 0.0
               : static_cast<double>(occupied_violations) / static_cast<double>(occupied_steps);
  }
};

struct FleetReport {
  std::size_t buildings = 0;
  std::size_t steps = 0;
  std::size_t dt_decisions = 0;
  std::size_t mbrl_decisions = 0;
  LatencyStats dt_latency;
  LatencyStats mbrl_latency;
  double energy_kwh = 0.0;
  std::size_t occupied_steps = 0;
  std::size_t occupied_violations = 0;
  double wall_seconds = 0.0;
  RequestScheduler::Stats scheduler_stats;
  /// Decisions whose future failed (scheduler shutdown/exception). The
  /// hot-swap contract is zero: a promotion must never drop an in-flight
  /// decision.
  std::size_t dropped_decisions = 0;
  std::vector<FleetStepMetrics> step_metrics;  ///< one entry per fleet step

  double violation_rate() const {
    return occupied_steps == 0
               ? 0.0
               : static_cast<double>(occupied_violations) / static_cast<double>(occupied_steps);
  }

  /// Human-readable block for CLI/bench output.
  std::string summary() const;
  /// One JSON object (no trailing newline) for the CLI's `--out` report.
  std::string to_json() const;
};

class FleetHarness {
 public:
  /// `pool` defaults to the shared VERI_HVAC_THREADS pool.
  FleetHarness(FleetConfig config, FleetAssetProvider assets,
               std::shared_ptr<const common::TaskPool> pool = nullptr);

  /// Builds the fleet (bundles installed, sessions opened) and drives it
  /// for config.steps. One fleet pass per harness instance: session
  /// decision counters advance, so call sites wanting a fresh replay
  /// construct a fresh harness.
  FleetReport run();

  const PolicyRegistry& registry() const { return *registry_; }
  const SessionManager& sessions() const { return *sessions_; }
  RequestScheduler& scheduler() { return *scheduler_; }

  /// Shared handles for the adaptation loop: the controller that promotes
  /// a re-certified bundle installs into the same registry/scheduler the
  /// harness serves from.
  const std::shared_ptr<PolicyRegistry>& registry_ptr() const { return registry_; }
  const std::shared_ptr<SessionManager>& sessions_ptr() const { return sessions_; }

 private:
  FleetConfig config_;
  FleetAssetProvider assets_;
  std::shared_ptr<PolicyRegistry> registry_;
  std::shared_ptr<SessionManager> sessions_;
  std::unique_ptr<RequestScheduler> scheduler_;
};

}  // namespace verihvac::serve
