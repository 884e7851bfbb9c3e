// The instrument catalog: every well-known metric the stack publishes,
// with type, meaning and alert guidance.
//
// This table is the single source of truth for observability surface:
//   * production code resolves handles through obs::counter/gauge/
//     histogram(name), which REQUIRES the name to be cataloged (a typo
//     throws at construction instead of silently minting an orphan);
//   * docs/OPERATIONS.md's monitoring table is generated from it, and
//     tools/check_metrics_docs.py fails CI when they diverge;
//   * `verihvac_cli stats` registers the whole catalog so an exposition
//     dump lists every instrument even before traffic touches it.
#pragma once

#include "obs/metrics.hpp"

namespace verihvac::obs {

struct InstrumentSpec {
  const char* name;
  InstrumentKind kind;
  /// One-line meaning (doubles as the exposition HELP text).
  const char* help;
  /// What an operator should do when this instrument misbehaves.
  const char* alert;
};

/// Every cataloged instrument, grouped by subsystem. check_metrics_docs.py
/// parses the definition in instruments.cpp, so entries must stay literal.
const std::vector<InstrumentSpec>& instrument_catalog();

/// Catalog lookup (nullptr when `name` is not cataloged).
const InstrumentSpec* find_instrument(const std::string& name);

/// Resolve a cataloged instrument in the global registry (get-or-create
/// with the catalog help). Throws std::invalid_argument for names missing
/// from the catalog or cataloged under a different kind — instrument
/// typos fail loudly at handle-resolution time, not silently at scrape
/// time.
Counter& counter(const char* name);
Gauge& gauge(const char* name);
Histogram& histogram(const char* name);

/// A counter owned by one object (a scheduler, a log, a store) that also
/// feeds the global instrument of the same name: the one way an instance
/// publishes a count. add() picks the caller's shard once and adds to that
/// shard of both the instance's cells and the global instrument's, so each
/// event is counted once per view; value() is this instance's exact total
/// while the registry keeps the process-cumulative one. Several instances
/// may share a name (their global deltas sum). Built from a cataloged
/// counter name, so a typo throws std::invalid_argument.
class InstanceCounter {
 public:
  explicit InstanceCounter(const char* name);

  void add(std::uint64_t delta = 1) noexcept {
    const std::size_t slot = detail::metric_shard_slot();
    own_.cells_[slot].value.fetch_add(delta, std::memory_order_relaxed);
    global_.cells_[slot].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept { return own_.value(); }

 private:
  Counter own_;
  Counter& global_;
};

/// Registers every cataloged instrument in the global registry (idempotent)
/// so expositions list the full surface with zero values.
void register_catalog();

/// Stamps the process-identity gauges: `build_info` (a constant build
/// fingerprint) and `process_uptime_seconds` (sampled now, relative to the
/// registry's construction). Call right before writing an exposition so a
/// snapshot is attributable to a binary and a process lifetime;
/// register_catalog() also calls it once.
void publish_process_info();

namespace detail {
/// Installs the logging / task-pool hooks that feed common-layer activity
/// (log_warn_total, taskpool_*) into `registry`. Called once from
/// MetricsRegistry::global(); must not call global() itself.
void install_runtime_hooks(MetricsRegistry& registry);
}  // namespace detail

}  // namespace verihvac::obs
