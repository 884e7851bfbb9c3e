// Parallel rollout engine for the random-shooting optimizer.
//
// Random shooting spends its time in one place: scoring N
// candidate action sequences with H dynamics-model evaluations each. The
// engine spreads that work across a persistent pool of worker threads —
// since PR 2 the generic common::TaskPool, which the verification
// subsystem (core::VerificationEngine) shares; RolloutEngine is a thin
// control-facing client that keeps the optimizer API stable.
//
// The unit of work is a contiguous slice advanced in lock-step: each
// horizon step's predictions for the whole slice are fused into one
// batched forward (dyn::DynamicsModel::predict_batch_into) with persistent
// thread-local scratch. RandomShooting::solve shards the flattened
// candidates of its decisions (one for optimize, one per request of a
// serving micro-batch) across workers, one lock-step batch per (decision,
// sub-range) overlap; decision-data generation shards whole points, each
// worker solving a point inline. Determinism
// is preserved by construction: RNG draws happen only in (serial) sequence
// generation or from per-point RNG snapshots, per-candidate arithmetic is
// independent of how the batch is sliced, every return is written to its
// own output slot, and winner selection is a serial scan — so any thread
// count produces decisions bit-identical to the scalar single-threaded
// loop.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "common/task_pool.hpp"

namespace verihvac::control {

/// Same knobs as the pool itself (threads: 0 = hardware concurrency;
/// min_parallel_batch: smaller batches run inline on the caller).
using RolloutEngineConfig = common::TaskPoolConfig;

class RolloutEngine {
 public:
  explicit RolloutEngine(RolloutEngineConfig config = {});
  /// Adopts an existing pool instead of spawning a private one (the shared
  /// engine wraps common::TaskPool::shared() so control and verification
  /// workloads share one set of worker threads).
  explicit RolloutEngine(std::shared_ptr<const common::TaskPool> pool);

  RolloutEngine(const RolloutEngine&) = delete;
  RolloutEngine& operator=(const RolloutEngine&) = delete;

  /// Total concurrency: pool workers + the calling thread.
  std::size_t thread_count() const { return pool_->thread_count(); }

  const RolloutEngineConfig& config() const { return pool_->config(); }

  /// The underlying pool (shareable with non-control clients).
  const std::shared_ptr<const common::TaskPool>& pool() const { return pool_; }

  /// Forwards to common::TaskPool::parallel_for — see its contract (per-index
  /// slots, exception rethrow, no nested parallel_for on the same pool).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) const {
    pool_->parallel_for(n, body);
  }

  /// Process-wide shared engine over common::TaskPool::shared(), sized from
  /// VERI_HVAC_THREADS (default: hardware concurrency; =1 forces serial).
  static std::shared_ptr<const RolloutEngine> shared();

 private:
  std::shared_ptr<const common::TaskPool> pool_;
};

}  // namespace verihvac::control
