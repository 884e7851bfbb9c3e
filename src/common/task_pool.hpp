// Reusable persistent thread pool (index-range fan-out).
//
// Generalized from control::RolloutEngine (which is now a thin client):
// the same pool that batches random-shooting rollouts also fans out the
// verification workloads — Monte-Carlo probabilistic checks, per-(leaf ×
// cell) interval certification, per-initial-state reachability tubes —
// through core::VerificationEngine. Determinism is preserved by
// construction for every client: each index of [0, n) is processed exactly
// once into its own output slot, so results are independent of which
// worker claims which chunk, and any serial reduction over the slots is
// bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace verihvac::common {

struct TaskPoolConfig {
  /// Worker threads including the calling thread; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Batches smaller than this run inline on the caller — forking the pool
  /// for a handful of items costs more than it saves.
  std::size_t min_parallel_batch = 16;
};

class TaskPool {
 public:
  explicit TaskPool(TaskPoolConfig config = {});
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total concurrency: pool workers + the calling thread.
  std::size_t thread_count() const { return workers_.size() + 1; }

  const TaskPoolConfig& config() const { return config_; }

  /// Splits [0, n) into contiguous chunks and runs body(worker_id, begin,
  /// end) across the pool (the caller participates as worker 0; worker_id
  /// < thread_count()). Blocks until every chunk completed. Each index is
  /// processed exactly once, so writes to per-index output slots are
  /// race-free. The first exception thrown by any chunk is rethrown here.
  ///
  /// Concurrent calls from distinct caller threads serialize internally,
  /// but `body` must NOT call back into parallel_for on the same pool
  /// (directly or via a nested batch): re-entry from the caller or a pool
  /// worker deadlocks. Nested parallelism needs a second pool.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) const;

  /// Process-wide shared pool sized from VERI_HVAC_THREADS (default:
  /// hardware concurrency). VERI_HVAC_THREADS=1 forces serial execution.
  static std::shared_ptr<const TaskPool> shared();

  /// Observability hook called after every parallel_for with the item
  /// count, the fan-out's wall time, and how many parallel_for invocations
  /// were in flight (across all pools) when this one started. One hook
  /// process-wide (obs installs it); nullptr uninstalls. Returns the
  /// previously installed hook. The hook must not call parallel_for.
  using MetricsHook = void (*)(std::size_t items, double seconds, std::size_t active);
  static MetricsHook set_metrics_hook(MetricsHook hook);

 private:
  struct Job;

  void worker_loop(std::size_t worker_id);

  TaskPoolConfig config_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;  ///< pool synchronization state
};

}  // namespace verihvac::common
