// Streaming drift detection over per-cluster prediction residuals.
//
// The serving stack's world model goes stale when the building changes
// underneath it — equipment wear, envelope leakage, occupancy pattern
// shifts. The observable symptom is the one-step prediction residual
// |f_hat(s, d, a) - s'| between the (ensemble) dynamics model and the
// telemetry transition actually observed. Per building cluster (policy
// key) the monitor keeps:
//
//   * Welford mean/variance of the residual stream (common::RunningStats:
//     numerically stable, O(1) per sample), and
//   * a one-sided Page-Hinkley cumulative test on residual increases:
//       m_t = m_{t-1} + (x_t - mean_t - delta),  M_t = min(M_t, m_t),
//       PH_t = m_t - M_t;   alarm when PH_t > lambda.
//     delta absorbs slow wander (magnitude the loop should ignore);
//     lambda trades detection delay against false alarms.
//
// A cluster fires once per excursion: the alarm latches until reset()
// (the adaptation controller resets after a successful promotion, which
// re-baselines detection on the fine-tuned model's residuals).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/instruments.hpp"

namespace verihvac::adapt {

struct DriftMonitorConfig {
  /// Page-Hinkley drift allowance per sample (same unit as the residual:
  /// degrees C of one-step prediction error).
  double ph_delta = 0.01;
  /// Page-Hinkley alarm threshold. With residuals in degC, 2.0 means the
  /// cumulative excess error since the best point reached two degrees.
  double ph_lambda = 2.0;
  /// Samples before a cluster may alarm (the running mean must settle).
  std::size_t min_samples = 32;
};

/// Snapshot of one cluster's residual statistics.
struct DriftStats {
  std::size_t samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double max_residual = 0.0;
  double ph_statistic = 0.0;
  bool drifted = false;  ///< latched alarm
};

struct DriftEvent {
  std::string cluster;
  std::size_t samples = 0;
  double mean_residual = 0.0;
  double ph_statistic = 0.0;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftMonitorConfig config = {});

  const DriftMonitorConfig& config() const { return config_; }

  /// Feeds one residual observation; returns the drift event iff this
  /// sample fires the cluster's (previously quiet) alarm.
  std::optional<DriftEvent> observe(const std::string& cluster, double residual);

  /// Whether the cluster's alarm is currently latched.
  bool drifted(const std::string& cluster) const;

  /// Snapshot (zeroed stats for unknown clusters).
  DriftStats stats(const std::string& cluster) const;
  std::vector<std::string> clusters() const;

  /// Clears the cluster's statistics and alarm — a fresh baseline after
  /// the adaptation loop promoted a re-certified bundle.
  void reset(const std::string& cluster);

 private:
  struct Cluster {
    RunningStats residuals;
    double ph_m = 0.0;    ///< cumulative deviation
    double ph_min = 0.0;  ///< running minimum of ph_m
    bool fired = false;
  };

  DriftMonitorConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Cluster> clusters_;

  /// Process-wide obs instruments: every scored residual feeds the
  /// `adapt_drift_residual` histogram (its quantiles are the earliest
  /// drift signal) and fired alarms count into `adapt_drift_alarms_total`.
  obs::Histogram& residual_histogram_;
  obs::Counter& alarms_;
};

}  // namespace verihvac::adapt
