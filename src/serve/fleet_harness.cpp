#include "serve/fleet_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/timing.hpp"
#include "envlib/env.hpp"
#include "weather/climate.hpp"

namespace verihvac::serve {

namespace {

double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double position = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t index = static_cast<std::size_t>(std::llround(position));
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Sorts `seconds` in place and returns its percentile summary; the caller
/// sets serve_seconds.
LatencyStats summarize_latencies(std::vector<double>& seconds) {
  LatencyStats stats;
  stats.count = seconds.size();
  if (seconds.empty()) return stats;
  std::sort(seconds.begin(), seconds.end());
  double total = 0.0;
  for (const double s : seconds) total += s;
  stats.mean_us = total / static_cast<double>(seconds.size()) * 1e6;
  stats.p50_us = percentile(seconds, 50.0) * 1e6;
  stats.p95_us = percentile(seconds, 95.0) * 1e6;
  stats.p99_us = percentile(seconds, 99.0) * 1e6;
  stats.max_us = seconds.back() * 1e6;
  return stats;
}

}  // namespace

std::string FleetReport::summary() const {
  char line[256];
  std::ostringstream out;
  std::snprintf(line, sizeof(line), "fleet: %zu buildings x %zu steps, %.2fs wall\n", buildings,
                steps, wall_seconds);
  out << line;
  const auto row = [&](const char* label, std::size_t count, const LatencyStats& lat) {
    std::snprintf(line, sizeof(line),
                  "  %-6s %8zu decisions %12.0f/s  p50 %8.1fus  p95 %8.1fus  p99 %8.1fus\n",
                  label, count, lat.decisions_per_sec(), lat.p50_us, lat.p95_us, lat.p99_us);
    out << line;
  };
  row("DT", dt_decisions, dt_latency);
  row("MBRL", mbrl_decisions, mbrl_latency);
  std::snprintf(line, sizeof(line),
                "  batches: %llu (max %llu, %.1f req/batch)  energy %.1f kWh  violation %.3f\n",
                static_cast<unsigned long long>(scheduler_stats.batches),
                static_cast<unsigned long long>(scheduler_stats.max_batch),
                scheduler_stats.batches == 0
                    ? 0.0
                    : static_cast<double>(scheduler_stats.mbrl_served) /
                          static_cast<double>(scheduler_stats.batches),
                energy_kwh, violation_rate());
  out << line;
  return out.str();
}

std::string FleetReport::to_json() const {
  std::ostringstream out;
  const auto lat = [&](const char* name, const LatencyStats& stats) {
    out << "\"" << name << "\": {\"count\": " << stats.count
        << ", \"decisions_per_sec\": " << stats.decisions_per_sec()
        << ", \"mean_us\": " << stats.mean_us << ", \"p50_us\": " << stats.p50_us
        << ", \"p95_us\": " << stats.p95_us << ", \"p99_us\": " << stats.p99_us
        << ", \"max_us\": " << stats.max_us << "}";
  };
  out << "{\"buildings\": " << buildings << ", \"steps\": " << steps
      << ", \"dt_decisions\": " << dt_decisions << ", \"mbrl_decisions\": " << mbrl_decisions
      << ", ";
  lat("dt_latency", dt_latency);
  out << ", ";
  lat("mbrl_latency", mbrl_latency);
  out << ", \"energy_kwh\": " << energy_kwh << ", \"violation_rate\": " << violation_rate()
      << ", \"wall_seconds\": " << wall_seconds
      << ", \"batches\": " << scheduler_stats.batches
      << ", \"max_batch\": " << scheduler_stats.max_batch
      << ", \"dropped_decisions\": " << dropped_decisions << "}";
  return out.str();
}

FleetHarness::FleetHarness(FleetConfig config, FleetAssetProvider assets,
                           std::shared_ptr<const common::TaskPool> pool)
    : config_(std::move(config)),
      assets_(std::move(assets)),
      registry_(std::make_shared<PolicyRegistry>()),
      sessions_(std::make_shared<SessionManager>()) {
  scheduler_ = std::make_unique<RequestScheduler>(config_.scheduler, registry_, sessions_,
                                                  config_.rs, control::ActionSpace{},
                                                  env::RewardConfig{}, std::move(pool));
  if (config_.tap != nullptr) scheduler_->set_tap(config_.tap);
}

FleetReport FleetHarness::run() {
  struct Building {
    SessionId session = 0;
    RequestKind kind = RequestKind::kDtPolicy;
    std::unique_ptr<env::BuildingEnv> env;
    env::Observation obs;
    bool done = false;
  };

  // Provision the grid: one bundle + model per (climate x preset) cell,
  // one environment + session per building.
  std::vector<Building> fleet;
  std::size_t building_index = 0;
  std::size_t episode_steps = config_.steps;
  for (const std::string& climate : config_.climates) {
    for (const FleetPreset& preset : config_.presets) {
      const std::string key = climate + "/" + preset.name;
      const FleetAssets assets = assets_(climate, preset);
      registry_->install(key, assets.policy);
      scheduler_->install_model(key, assets.model);

      const std::size_t fallback_count = static_cast<std::size_t>(
          std::ceil(config_.mbrl_fraction * static_cast<double>(config_.buildings_per_cell)));
      for (std::size_t b = 0; b < config_.buildings_per_cell; ++b, ++building_index) {
        env::EnvConfig env_config;
        env_config.climate = weather::profile_by_name(climate);
        env_config.days = config_.days;
        env_config.hvac_capacity_scale = preset.hvac_scale;
        env_config.weather_seed = config_.seed * 1000003ull + building_index;

        Building building;
        building.kind =
            b < fallback_count ? RequestKind::kMbrlFallback : RequestKind::kDtPolicy;
        building.env = std::make_unique<env::BuildingEnv>(env_config);
        building.obs = building.env->reset();
        SessionConfig session;
        session.policy_key = key;
        session.seed = config_.seed + 7919ull * building_index;
        building.session = sessions_->open(session);
        if (config_.on_session_open) config_.on_session_open(building.session, session);
        episode_steps = std::min(episode_steps, building.env->horizon_steps());
        fleet.push_back(std::move(building));
      }
    }
  }

  if (config_.async && !scheduler_->running()) scheduler_->start();

  FleetReport report;
  report.buildings = fleet.size();
  report.steps = episode_steps;
  std::vector<double> dt_latencies;
  std::vector<double> mbrl_latencies;
  double dt_serve_wall = 0.0;
  double mbrl_serve_wall = 0.0;  // submit -> last completion, overlap counted once

  report.step_metrics.resize(episode_steps);

  // Steps one building's plant under `action` and meters the outcome into
  // both the run totals and the step's metrics.
  const auto step_plant = [&report](Building& building, const sim::SetpointPair& action,
                                    FleetStepMetrics& step_metrics) {
    const env::StepOutcome outcome = building.env->step(action);
    const auto meter = [&outcome](auto& into) {
      into.energy_kwh += outcome.energy_kwh;
      if (outcome.occupied) {
        ++into.occupied_steps;
        if (outcome.comfort_violation) ++into.occupied_violations;
      }
    };
    meter(report);
    meter(step_metrics);
    building.obs = outcome.observation;
    building.done = outcome.done;
  };

  const auto t_run = std::chrono::steady_clock::now();
  for (std::size_t step = 0; step < episode_steps; ++step) {
    FleetStepMetrics& step_metrics = report.step_metrics[step];

    // Drift injection: the plants silently change; the serving stack only
    // ever finds out through telemetry residuals.
    for (const FleetDriftEvent& event : config_.drift) {
      if (event.at_step != step) continue;
      for (Building& building : fleet) {
        if (!building.done) building.env->apply_degradation(event.degradation);
      }
    }

    // DT fast path: inline, one serving call per building, timed per call.
    for (Building& building : fleet) {
      if (building.done || building.kind != RequestKind::kDtPolicy) continue;
      ControlRequest request;
      request.session = building.session;
      request.kind = RequestKind::kDtPolicy;
      request.observation = building.obs;
      const auto t0 = std::chrono::steady_clock::now();
      const ControlDecision decision = scheduler_->serve(request);
      dt_latencies.push_back(seconds_since(t0));
      dt_serve_wall += dt_latencies.back();  // inline calls never overlap
      ++report.dt_decisions;
      step_metrics.max_policy_version =
          std::max(step_metrics.max_policy_version, decision.policy_version);

      step_plant(building, decision.action, step_metrics);
    }

    // MBRL fallback: the step's whole cohort is submitted together so the
    // shard workers coalesce the backlog into cross-session batches.
    std::vector<Building*> cohort;
    for (Building& building : fleet) {
      if (!building.done && building.kind == RequestKind::kMbrlFallback) {
        cohort.push_back(&building);
      }
    }
    std::vector<std::future<ControlDecision>> futures;
    std::vector<std::chrono::steady_clock::time_point> submitted;
    futures.reserve(cohort.size());
    submitted.reserve(cohort.size());
    const auto t_cohort = std::chrono::steady_clock::now();
    for (Building* building : cohort) {
      ControlRequest request;
      request.session = building->session;
      request.kind = RequestKind::kMbrlFallback;
      request.observation = building->obs;
      request.forecast = building->env->forecast(config_.rs.horizon);
      submitted.push_back(std::chrono::steady_clock::now());
      futures.push_back(scheduler_->submit(std::move(request)));
    }
    // Collect every decision before touching the plants: the serving
    // window (first submit -> last completion) must not meter env time.
    std::vector<ControlDecision> cohort_decisions(cohort.size());
    std::vector<bool> cohort_served(cohort.size(), false);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      try {
        cohort_decisions[i] = futures[i].get();
        cohort_served[i] = true;
        // Only decisions actually served enter the latency/throughput
        // metrics: an exception's time-to-failure is not a serving
        // latency.
        mbrl_latencies.push_back(seconds_since(submitted[i]));
        ++report.mbrl_decisions;
      } catch (...) {
        // A dropped in-flight decision. The hot-swap contract says this
        // never happens during a promotion; the drift benches assert 0.
        ++report.dropped_decisions;
      }
    }
    if (!cohort.empty()) mbrl_serve_wall += seconds_since(t_cohort);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      if (cohort_served[i]) step_plant(*cohort[i], cohort_decisions[i].action, step_metrics);
    }

    if (config_.on_step) config_.on_step(*this, step);
  }
  report.wall_seconds = seconds_since(t_run);

  report.dt_latency = summarize_latencies(dt_latencies);
  report.mbrl_latency = summarize_latencies(mbrl_latencies);
  // Throughput denominators: measured serving windows, not latency sums —
  // async cohort latencies overlap, and summing them would understate
  // MBRL throughput by roughly the micro-batch size.
  report.dt_latency.serve_seconds = dt_serve_wall;
  report.mbrl_latency.serve_seconds = mbrl_serve_wall;
  report.scheduler_stats = scheduler_->stats();
  return report;
}

}  // namespace verihvac::serve
