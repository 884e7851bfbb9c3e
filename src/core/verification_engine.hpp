// Parallel multi-workload verification engine — the certification
// counterpart of control::RolloutEngine.
//
// The three verification workloads of the paper are embarrassingly
// parallel, each at a different granularity:
//   * criterion #1 Monte-Carlo (§3.3.2): independent per sample,
//   * interval certification (branch-and-bound input splitting):
//     independent per (leaf × cell),
//   * Eq. 3 reachability tubes: independent per initial state.
// VerificationEngine batches all three over the shared common::TaskPool.
//
// Determinism contract (mirrors the rollout engine's): every work unit
// writes to its own output slot and the reductions are serial scans in a
// fixed order, so reports are BIT-IDENTICAL for every thread count
// (VERI_HVAC_THREADS=1/4/8, locked in by
// tests/core/verification_engine_test.cpp). For the Monte-Carlo verifier
// this additionally requires decoupling the RNG from the schedule: sample
// i draws from its own counter-based stream Rng::stream(seed, i) instead
// of a single shared sequence, so the estimate depends only on (seed, i)
// — never on which worker ran the sample. It is criterion #1's one
// estimator (verify_probabilistic_one_step is an adapter onto it); a pool
// of 1 is the serial case.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/task_pool.hpp"
#include "core/interval_verify.hpp"
#include "core/reachability.hpp"
#include "core/verification.hpp"
#include "obs/instruments.hpp"

namespace verihvac::core {

class VerificationEngine {
 public:
  /// Wraps the given pool (defaults to the process-wide shared pool, so
  /// control and verification share one set of worker threads).
  explicit VerificationEngine(std::shared_ptr<const common::TaskPool> pool = nullptr);

  const common::TaskPool& pool() const { return *pool_; }
  std::size_t thread_count() const { return pool_->thread_count(); }

  /// Criterion #1 Monte-Carlo over per-sample RNG streams: sample i runs
  /// its rejection loop (safe occupied input with an occupied
  /// continuation) entirely inside Rng::stream(seed, i) and contributes
  /// one accept to the estimate; throws std::runtime_error when a sample
  /// finds none in 10000 draws. Bit-identical across thread counts. Each
  /// worker stages its slice's accepted inputs as one batch matrix and
  /// advances them with a single batched forward
  /// (dyn::DynamicsModel::predict_batch_into), bit-identical per row to
  /// the scalar predict.
  ProbabilisticReport verify_probabilistic(const DtPolicy& policy,
                                           const dyn::DynamicsModel& model,
                                           const AugmentedSampler& sampler,
                                           const VerificationCriteria& criteria,
                                           std::size_t n_samples, std::uint64_t seed) const;

  /// Interval certification of every subject leaf within `envelope` (by
  /// default the policy schema's envelope()), fanned out per (leaf ×
  /// input-splitting cell). The model must be trained. A pool of 1 is the
  /// serial case; the report is bit-identical at every pool size.
  IntervalReport verify_interval(const DtPolicy& policy, const dyn::DynamicsModel& model,
                                 const VerificationCriteria& criteria,
                                 const std::optional<Box>& envelope = std::nullopt,
                                 const IntervalVerifyConfig& config = {}) const;

  /// Eq. 3 reachability tubes fanned out per initial state; tube i of the
  /// result corresponds to initial_states[i]. All tubes share the one
  /// disturbance sequence (see reach_tube for its step contract).
  std::vector<ReachabilityResult> reach_tubes(
      const DtPolicy& policy, const dyn::DynamicsModel& model,
      const std::vector<std::vector<double>>& initial_states,
      const std::vector<env::Disturbance>& disturbances, std::size_t horizon) const;

 private:
  std::shared_ptr<const common::TaskPool> pool_;
  /// Process-wide obs instruments (resolved once at construction); each
  /// entry point also opens a "verify" trace span.
  obs::Counter& probabilistic_runs_;
  obs::Counter& interval_runs_;
  obs::Counter& reach_runs_;
};

}  // namespace verihvac::core
