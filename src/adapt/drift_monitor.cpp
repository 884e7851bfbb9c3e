#include "adapt/drift_monitor.hpp"

#include <algorithm>

namespace verihvac::adapt {

DriftMonitor::DriftMonitor(DriftMonitorConfig config)
    : config_(config),
      residual_histogram_(obs::histogram("adapt_drift_residual")),
      alarms_(obs::counter("adapt_drift_alarms_total")) {}

std::optional<DriftEvent> DriftMonitor::observe(const std::string& cluster, double residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  Cluster& state = clusters_[cluster];
  state.residuals.add(residual);
  residual_histogram_.observe(residual);

  // One-sided Page-Hinkley on residual increase, against the running mean.
  state.ph_m += residual - state.residuals.mean() - config_.ph_delta;
  state.ph_min = std::min(state.ph_min, state.ph_m);
  const double ph = state.ph_m - state.ph_min;

  if (!state.fired && state.residuals.count() >= config_.min_samples && ph > config_.ph_lambda) {
    state.fired = true;
    alarms_.add(1);
    DriftEvent event;
    event.cluster = cluster;
    event.samples = state.residuals.count();
    event.mean_residual = state.residuals.mean();
    event.ph_statistic = ph;
    return event;
  }
  return std::nullopt;
}

bool DriftMonitor::drifted(const std::string& cluster) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clusters_.find(cluster);
  return it != clusters_.end() && it->second.fired;
}

DriftStats DriftMonitor::stats(const std::string& cluster) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clusters_.find(cluster);
  DriftStats stats;
  if (it == clusters_.end()) return stats;
  const Cluster& state = it->second;
  stats.samples = state.residuals.count();
  stats.mean = state.residuals.mean();
  stats.stddev = state.residuals.stddev();
  stats.max_residual = state.residuals.count() > 0 ? state.residuals.max() : 0.0;
  stats.ph_statistic = state.ph_m - state.ph_min;
  stats.drifted = state.fired;
  return stats;
}

std::vector<std::string> DriftMonitor::clusters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(clusters_.size());
  for (const auto& [name, state] : clusters_) {
    (void)state;
    out.push_back(name);
  }
  return out;
}

void DriftMonitor::reset(const std::string& cluster) {
  std::lock_guard<std::mutex> lock(mutex_);
  clusters_.erase(cluster);
}

}  // namespace verihvac::adapt
