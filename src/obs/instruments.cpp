#include "obs/instruments.hpp"

#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "common/task_pool.hpp"
#include "obs/trace.hpp"

namespace verihvac::obs {

// clang-format off
const std::vector<InstrumentSpec>& instrument_catalog() {
  static const std::vector<InstrumentSpec> catalog = {
      // --- serve: micro-batching request scheduler ---
      {"serve_dt_served_total", InstrumentKind::kCounter,
       "DT fast-path decisions served inline",
       "a sustained rate drop while sessions are admitted means the fast path is starving"},
      {"serve_mbrl_served_total", InstrumentKind::kCounter,
       "MBRL fallback decisions served",
       "a rising share vs DT means bundles are being bypassed - check promotion health"},
      {"serve_batches_total", InstrumentKind::kCounter,
       "cross-session MBRL micro-batches solved",
       "flat while serve_mbrl_served_total grows means batching degraded to singletons"},
      {"serve_batched_requests_total", InstrumentKind::kCounter,
       "MBRL requests that rode a coalesced batch",
       "divide by serve_batches_total for mean batch size; near 1 wastes the batch pipeline"},
      {"serve_queue_depth", InstrumentKind::kGauge,
       "queued MBRL requests across all shards (sampled at batch close)",
       "pinned near queue_capacity means admission back-pressure - add shards or capacity"},
      {"serve_shard_queue_depth", InstrumentKind::kHistogram,
       "per-shard queue depth sampled at each batch close",
       "a heavy tail on one deployment means shard-skewed sessions - check the id mapping"},
      {"serve_batch_size", InstrumentKind::kHistogram,
       "requests per solved micro-batch",
       "p50 pinned at max_batch means the shard is saturated - add shards or pool threads"},
      {"serve_dt_latency_seconds", InstrumentKind::kHistogram,
       "sampled DT fast-path decision latency",
       "p99 above a few microseconds means the fast path picked up contention"},
      {"serve_mbrl_solve_seconds", InstrumentKind::kHistogram,
       "wall time of one cross-session batch solve",
       "creeping p99 is MBRL latency no batching can hide - every queued request waits it out"},
      // --- common: shared task pool ---
      {"taskpool_batches_total", InstrumentKind::kCounter,
       "parallel_for fan-outs executed on the shared pool",
       "none"},
      {"taskpool_items_total", InstrumentKind::kCounter,
       "index items processed across all fan-outs",
       "none"},
      {"taskpool_batch_seconds", InstrumentKind::kHistogram,
       "wall time of one parallel_for fan-out",
       "a fattening tail means rollout/verification work is contending for the pool"},
      {"taskpool_active_jobs", InstrumentKind::kGauge,
       "parallel_for invocations currently in flight (callers serialize)",
       "persistently above 1 means clients are queueing on the shared pool"},
      // --- adapt: telemetry capture ---
      {"telemetry_records_total", InstrumentKind::kCounter,
       "decision records published into the telemetry rings",
       "flat while serving means the tap is not installed"},
      {"telemetry_lost_total", InstrumentKind::kCounter,
       "records lost to ring laps or torn slots",
       "nonzero means the pump drains too slowly or rings are undersized - lost data biases adaptation"},
      {"telemetry_overwritten_total", InstrumentKind::kCounter,
       "lost records that were lap-overwrites (the bulk-skip share of telemetry_lost_total)",
       "dominating telemetry_lost_total means the consumer is slow, not that writers are tearing"},
      {"telemetry_sampling_skips_total", InstrumentKind::kCounter,
       "DT decisions the deterministic sampler chose not to record",
       "none - expected (period-1)/period of DT traffic when dt_sample_period > 1"},
      // --- adapt: durable telemetry store ---
      {"telemetry_store_records_persisted_total", InstrumentKind::kCounter,
       "records appended to on-disk segments",
       "flat while telemetry_records_total grows means the writer thread stalled"},
      {"telemetry_store_records_dropped_total", InstrumentKind::kCounter,
       "records dropped by retention deletion, crash-recovery trim or a failing disk",
       "a spike without matching retention deletes means segments are being truncated - check disk"},
      {"telemetry_store_bytes_written_total", InstrumentKind::kCounter,
       "segment payload bytes written (headers excluded)",
       "multiply by retention window for disk sizing; see the OPERATIONS runbook"},
      {"telemetry_store_rotations_total", InstrumentKind::kCounter,
       "segments sealed by the size/records/age rotation policy",
       "none"},
      {"telemetry_store_truncations_total", InstrumentKind::kCounter,
       "torn tail segments trimmed to the last whole frame at recovery",
       "nonzero after a clean shutdown means something else is writing the directory"},
      {"telemetry_store_persist_errors_total", InstrumentKind::kCounter,
       "writer I/O failures swallowed (disk full/unwritable); repeated failures disable persistence",
       "any growth means the durable log is degrading - check disk space before records drop"},
      {"telemetry_store_segments", InstrumentKind::kGauge,
       "segment files currently in the store directory",
       "pinned at the retention cap with old decisions missing means retention is too tight"},
      {"telemetry_store_flush_seconds", InstrumentKind::kHistogram,
       "wall time of one writer flush (drain + append + rotate check)",
       "a fattening tail means the telemetry disk cannot keep up with decision volume"},
      // --- core: verification engine ---
      {"verify_probabilistic_runs_total", InstrumentKind::kCounter,
       "criterion-1 Monte-Carlo verification runs",
       "none"},
      {"verify_interval_runs_total", InstrumentKind::kCounter,
       "interval certification runs",
       "none"},
      {"verify_reach_runs_total", InstrumentKind::kCounter,
       "reachability-tube batch runs",
       "none"},
      // --- adapt: drift monitor + controller ---
      {"adapt_records_drained_total", InstrumentKind::kCounter,
       "telemetry records drained by the adaptation pump",
       "none"},
      {"adapt_records_lost_total", InstrumentKind::kCounter,
       "capture losses observed by the pump (lapped or torn records)",
       "see telemetry_lost_total"},
      {"adapt_transitions_total", InstrumentKind::kCounter,
       "session-consecutive record pairs turned into training transitions",
       "far below records/2 means capture gaps are breaking transition pairing"},
      {"adapt_drift_events_total", InstrumentKind::kCounter,
       "drift alarms acted on by the controller",
       "a burst across clusters usually means a real plant change, not detector noise"},
      {"adapt_drift_alarms_total", InstrumentKind::kCounter,
       "Page-Hinkley alarms fired by the drift monitor",
       "alarms without matching adaptations mean min_transitions gates retraining"},
      {"adapt_drift_residual", InstrumentKind::kHistogram,
       "one-step prediction residual per scored transition (degC)",
       "a rising p99 precedes alarms - the earliest drift signal available"},
      {"adapt_attempts_total", InstrumentKind::kCounter,
       "adaptation generations attempted",
       "attempts without promotions mean candidates fail certification or the shadow gate"},
      {"adapt_promotions_total", InstrumentKind::kCounter,
       "certified candidates promoted (hot-swapped)",
       "see adapt_attempts_total"},
      {"adapt_generation_seconds", InstrumentKind::kHistogram,
       "wall time of one adaptation generation (fine-tune through promote)",
       "growth here delays recovery from drift; see the trace spans for the stage breakdown"},
      // --- common: logging ---
      {"log_warn_total", InstrumentKind::kCounter,
       "WARN log lines emitted",
       "any sustained rate deserves a look at the log stream"},
      {"log_error_total", InstrumentKind::kCounter,
       "ERROR log lines emitted",
       "page on nonzero - errors are exceptional in steady state"},
      // --- process identity ---
      {"build_info", InstrumentKind::kGauge,
       "build fingerprint (FNV-1a of compiler + build date), constant per binary",
       "none - joins a metrics snapshot to the binary that produced it"},
      {"process_uptime_seconds", InstrumentKind::kGauge,
       "seconds since the metrics registry was constructed (sampled at exposition)",
       "a reset without a deploy means the process crashed and restarted"},
  };
  return catalog;
}
// clang-format on

namespace {

const InstrumentSpec& require_instrument(const char* name, InstrumentKind kind) {
  const InstrumentSpec* spec = find_instrument(name);
  if (spec == nullptr) {
    throw std::invalid_argument(std::string("instrument not in catalog: ") + name);
  }
  if (spec->kind != kind) {
    throw std::invalid_argument(std::string("instrument kind mismatch for: ") + name);
  }
  return *spec;
}

// Handles the common-layer hooks publish through; resolved once when the
// global registry is constructed (plain pointers: the registry outlives
// every caller).
Counter* g_log_warn = nullptr;
Counter* g_log_error = nullptr;
Counter* g_pool_batches = nullptr;
Counter* g_pool_items = nullptr;
Histogram* g_pool_seconds = nullptr;
Gauge* g_pool_active = nullptr;

/// Uptime epoch: the instant the global registry was constructed.
std::chrono::steady_clock::time_point g_process_epoch{};

/// FNV-1a over the strings the compiler bakes in — constant for a binary,
/// different across rebuilds, cheap enough to recompute per call.
double build_fingerprint() {
  // Non-standard seed (the telemetry fingerprints' basis), unchanged so a
  // given compiler + build time still maps to the same build_info value.
  common::Fnv1a h(1469598103934665603ull);
#if defined(__VERSION__)
  h.bytes(__VERSION__);
#endif
  h.bytes(__DATE__).bytes(__TIME__);
  // Gauges are doubles: keep the low 48 bits so the fingerprint survives
  // the exposition round-trip exactly (2^48 < 2^53).
  return static_cast<double>(h.digest() & ((1ull << 48) - 1));
}

void log_hook(LogLevel level) {
  if (level == LogLevel::kWarn) {
    g_log_warn->add(1);
  } else if (level == LogLevel::kError) {
    g_log_error->add(1);
  }
}

void task_pool_hook(std::size_t items, double seconds, std::size_t active) {
  g_pool_batches->add(1);
  g_pool_items->add(items);
  g_pool_seconds->observe(seconds);
  g_pool_active->set(static_cast<double>(active));
  // Task-latency sampling for the trace: 1-in-16 fan-outs per thread
  // become spans, enough to see pool contention without flooding the ring.
  thread_local std::size_t countdown = 0;
  if (countdown == 0) {
    countdown = 16;
    TraceCollector& collector = TraceCollector::global();
    if (collector.enabled()) {
      const std::uint64_t end_ns = collector.now_ns();
      const auto duration_ns = static_cast<std::uint64_t>(seconds * 1e9);
      collector.emit("pool.parallel_for", "pool", end_ns - std::min(end_ns, duration_ns),
                     duration_ns);
    }
  }
  --countdown;
}

}  // namespace

const InstrumentSpec* find_instrument(const std::string& name) {
  static const std::unordered_map<std::string, const InstrumentSpec*> index = [] {
    std::unordered_map<std::string, const InstrumentSpec*> out;
    for (const InstrumentSpec& spec : instrument_catalog()) out.emplace(spec.name, &spec);
    return out;
  }();
  const auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

Counter& counter(const char* name) {
  const InstrumentSpec& spec = require_instrument(name, InstrumentKind::kCounter);
  return MetricsRegistry::global().counter(spec.name, spec.help);
}

Gauge& gauge(const char* name) {
  const InstrumentSpec& spec = require_instrument(name, InstrumentKind::kGauge);
  return MetricsRegistry::global().gauge(spec.name, spec.help);
}

Histogram& histogram(const char* name) {
  const InstrumentSpec& spec = require_instrument(name, InstrumentKind::kHistogram);
  return MetricsRegistry::global().histogram(spec.name, spec.help);
}

InstanceCounter::InstanceCounter(const char* name) : global_(counter(name)) {}

void register_catalog() {
  MetricsRegistry& registry = MetricsRegistry::global();
  for (const InstrumentSpec& spec : instrument_catalog()) {
    switch (spec.kind) {
      case InstrumentKind::kCounter: registry.counter(spec.name, spec.help); break;
      case InstrumentKind::kGauge: registry.gauge(spec.name, spec.help); break;
      case InstrumentKind::kHistogram: registry.histogram(spec.name, spec.help); break;
    }
  }
  publish_process_info();
}

void publish_process_info() {
  gauge("build_info").set(build_fingerprint());
  const auto uptime = std::chrono::steady_clock::now() - g_process_epoch;
  gauge("process_uptime_seconds").set(std::chrono::duration<double>(uptime).count());
}

namespace detail {

void install_runtime_hooks(MetricsRegistry& registry) {
  g_process_epoch = std::chrono::steady_clock::now();
  const auto help = [](const char* name) { return std::string(find_instrument(name)->help); };
  g_log_warn = &registry.counter("log_warn_total", help("log_warn_total"));
  g_log_error = &registry.counter("log_error_total", help("log_error_total"));
  g_pool_batches = &registry.counter("taskpool_batches_total", help("taskpool_batches_total"));
  g_pool_items = &registry.counter("taskpool_items_total", help("taskpool_items_total"));
  g_pool_seconds = &registry.histogram("taskpool_batch_seconds", help("taskpool_batch_seconds"));
  g_pool_active = &registry.gauge("taskpool_active_jobs", help("taskpool_active_jobs"));
  set_log_hook(&log_hook);
  common::TaskPool::set_metrics_hook(&task_pool_hook);
}

}  // namespace detail

// Defined here rather than metrics.cpp: constructing the global registry
// installs the common-layer hooks, and only this TU knows both sides.
MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = [] {
    static MetricsRegistry registry;
    detail::install_runtime_hooks(registry);
    return &registry;
  }();
  return *instance;
}

}  // namespace verihvac::obs
