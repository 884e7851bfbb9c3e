// Process-wide metrics: wait-free sharded counters, gauges and
// log-bucketed histograms behind a named registry.
//
// The capture discipline is the same one the PR-5 telemetry rings proved:
// the hot path only ever touches per-thread cache-line-padded cells with
// relaxed atomics (no locks, no allocation, no clock reads), and readers
// pay the aggregation cost at snapshot time. Instruments therefore never
// perturb decisions — they observe values the decision path already
// computed — and the whole layer stays inside the <2% overhead budget
// gated by bench/obs_overhead.
//
// Registry lookups (name -> instrument) take a mutex and are meant for
// construction time: resolve `Counter*` / `Histogram*` handles once and
// keep them; the handles stay valid for the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace verihvac::obs {

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// Independent write shards per instrument; threads hash onto a shard so
/// concurrent increments do not contend on one cache line.
inline constexpr std::size_t kMetricShards = 16;

/// Log2 buckets per histogram. Bucket i holds values in
/// (upper_bound(i-1), upper_bound(i)] with upper_bound(i) = 1e-9 * 2^i;
/// bucket 0 also absorbs everything <= 1e-9 and the last bucket absorbs
/// the overflow tail. Seconds-valued samples span 1ns .. ~150 years.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Upper bound (inclusive) of histogram bucket `bucket`.
double histogram_bucket_upper_bound(std::size_t bucket);

/// Index of the bucket a sample lands in (binary search over the bounds,
/// exactly consistent with histogram_bucket_upper_bound).
std::size_t histogram_bucket_for(double value);

namespace detail {

/// Stable per-thread shard slot in [0, kMetricShards).
std::size_t metric_shard_slot();

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(64) HistogramCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

}  // namespace detail

class InstanceCounter;

/// Monotonic counter. add() is wait-free; value() folds the shards.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    cells_[detail::metric_shard_slot()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class InstanceCounter;  // adds to a shard it has already picked
  std::array<detail::CounterCell, kMetricShards> cells_{};
};

/// Last-write-wins gauge (single cell: gauges record a level, not a rate,
/// so sharded accumulation would be meaningless).
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram with per-thread sharded cells.
class Histogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    /// Per-bucket (non-cumulative) sample counts.
    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    /// Estimated q-quantile (q in [0,1]): linear interpolation inside the
    /// bucket holding the target rank. Exact to within one bucket width.
    double quantile(double q) const;
  };

  /// Wait-free; non-finite samples are dropped (they carry no latency
  /// information and would poison `sum`).
  void observe(double value) noexcept;

  Snapshot snapshot() const noexcept;

 private:
  std::array<detail::HistogramCell, kMetricShards> cells_{};
};

struct InstrumentInfo {
  std::string name;
  InstrumentKind kind;
  std::string help;
};

/// Named instrument registry. get-or-create by name; re-registering an
/// existing name with a different kind throws std::invalid_argument.
/// Instances are independent (tests use local registries); production code
/// goes through global().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "");

  /// Registered instruments, name-ordered.
  std::vector<InstrumentInfo> instruments() const;

  /// Prometheus-style text exposition (name-ordered, deterministic).
  std::string expose_text() const;

  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string expose_json() const;

  /// Process-wide registry. First use also installs the runtime hooks
  /// that feed log/task-pool activity into obs instruments.
  static MetricsRegistry& global();

 private:
  struct Entry {
    InstrumentInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, InstrumentKind kind, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace verihvac::obs
