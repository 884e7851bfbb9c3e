// Micro-batching control-request scheduler — the serving hot path.
//
// Two traffic classes, two paths:
//
//   * DT fast path. A verified bundle decision is one session admission,
//     one registry lookup, one flatten and one root-to-leaf tree walk — the
//     1127x Table-3 artifact. serve()/submit() answer these inline on the
//     caller's thread, sub-microsecond, never touching the queue. Nothing
//     on the path read-modify-writes a cache line other cores write, bar
//     the admission's shard lock and clock: the lookup compares the
//     registry's epoch against the thread's cached table copy and takes no
//     lock, the observation is flattened into a thread-local row, and the
//     served count lands in per-thread counter cells.
//
//   * MBRL fallback. A random-shooting decision costs samples x horizon
//     model evaluations. Requests enter per-shard bounded MPSC queues
//     aligned to the SessionManager sharding (session id % shard count),
//     so front ends serving different shards push without contending on
//     one queue lock; each shard has its own scheduler thread coalescing
//     arrivals into a micro-batch (up to max_batch) and solving it as ONE
//     control::RandomShooting::solve call, one decision per request — the
//     code optimize() and trace replay run. All candidates of the batch
//     form one flattened index space over the scheduler's TaskPool; a
//     worker slice can span request boundaries, so load balances across
//     sessions.
//
//     Batching is work-conserving: a shard worker blocks for its first
//     request, takes whatever else is already queued (up to max_batch)
//     and solves at once — it never idles waiting for company. Requests
//     that arrive during a solve form the next batch, so batches grow
//     with backlog and an idle shard answers a lone request immediately.
//
// Determinism contract: a decision depends only on (session seed, decision
// index, observation, forecast, bundle/model). Draws come from the
// per-request stream Rng::stream(seed, decision_index) fixed at admission,
// and the solve equals one optimize() call per request for any batch mix
// and thread count — locked in by tests/serve/request_scheduler_test.cpp
// against an independent scalar oracle at VERI_HVAC_THREADS=1/4/8. A
// request with a non-finite observation or forecast, or one shorter than
// the horizon, fails its own future (std::invalid_argument) only.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/task_pool.hpp"
#include "control/random_shooting.hpp"
#include "obs/instruments.hpp"
#include "serve/decision_tap.hpp"
#include "serve/mpsc_queue.hpp"
#include "serve/policy_registry.hpp"
#include "serve/request.hpp"
#include "serve/session_manager.hpp"

namespace verihvac::serve {

struct SchedulerConfig {
  /// Bound of each shard's MBRL admission queue (back-pressure, not
  /// backlog).
  std::size_t queue_capacity = 4096;
  /// MBRL queue shards, each with its own queue + scheduler thread.
  /// Requests route by session id % shard count — the SessionManager
  /// mapping — so 0 (the default) aligns to the session manager's shard
  /// count and a session's admissions and batches stay on one shard.
  std::size_t queue_shards = 0;
  /// Coalescing cap: requests per cross-session batch. 1 = serve each
  /// queued request alone (the per-session reference; decisions are
  /// bit-identical either way, only throughput changes).
  std::size_t max_batch = 64;
  /// Sampled DT timing: when a tap is installed and this is P > 0, one in
  /// P DT decisions (per serving thread, round-robin) is timed for the tap
  /// — p50/p99 latency telemetry at ~1/P of the full timing cost, which is
  /// what keeps capture inside the <5% fast-path overhead budget. P = 1
  /// times every decision (two steady_clock reads cost more than the tree
  /// walk they measure). Timed events set DecisionEvent::timed. 0 disables
  /// DT timing. MBRL decisions are always timed (batch solve time,
  /// negligible relative cost).
  std::size_t dt_timing_sample_period = 0;
};

class RequestScheduler {
 public:
  /// `pool` defaults to the process-wide shared pool (VERI_HVAC_THREADS).
  RequestScheduler(SchedulerConfig config, std::shared_ptr<const PolicyRegistry> registry,
                   std::shared_ptr<SessionManager> sessions,
                   control::RandomShootingConfig rs_config, control::ActionSpace actions,
                   env::RewardConfig reward,
                   std::shared_ptr<const common::TaskPool> pool = nullptr);
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Registers the dynamics model backing MBRL fallback for sessions whose
  /// policy key is `key` (hot-swappable, same snapshot semantics as the
  /// policy registry). Returns the model's generation: a scheduler-wide
  /// monotonic counter stamped into MBRL telemetry events, so a trace
  /// spanning a hot-swap still knows which model served each decision.
  std::uint64_t install_model(const std::string& key,
                              std::shared_ptr<const dyn::DynamicsModel> model);

  /// Installs (or clears, with nullptr) the decision tap. Install before
  /// serving starts: the fast path reads the pointer unsynchronized, so
  /// swapping it while requests are in flight is a race.
  void set_tap(std::shared_ptr<DecisionTap> tap);
  DecisionTap* tap() const { return tap_.get(); }

  /// Starts / stops the per-shard scheduler threads that drain the MBRL
  /// queues. serve() and serve_batch() work without them (solving
  /// inline); MBRL submit() uses the queues only while they run. stop()
  /// is symmetric: the queues reopen, so start() -> stop() cycles can
  /// repeat.
  void start();
  void stop();
  bool running() const { return !workers_.empty(); }

  /// Synchronous serving. DT: answered inline (fast path). MBRL: enqueued
  /// and awaited when the scheduler thread runs, else solved inline as a
  /// batch of one (the scalar reference path).
  ControlDecision serve(const ControlRequest& request);

  /// Asynchronous serving. DT requests resolve immediately (the returned
  /// future is ready); MBRL requests resolve when their micro-batch is
  /// solved. A request that fails (an unknown session included) throws
  /// from its own future only. Blocks while the queue is full
  /// (back-pressure).
  std::future<ControlDecision> submit(ControlRequest request);

  /// Synchronous cross-session micro-batch: admits every request (in
  /// vector order), answers DT entries inline and solves all MBRL entries
  /// as one batch. Returns one ready future per request (futures[i]
  /// answers requests[i]); as with submit(), a request that fails throws
  /// from its own future only.
  std::vector<std::future<ControlDecision>> serve_batch(
      const std::vector<ControlRequest>& requests);

  std::size_t thread_count() const { return pool_->thread_count(); }
  const SchedulerConfig& config() const { return config_; }
  /// Total queued MBRL requests across all shards.
  std::size_t queue_depth() const;
  std::size_t queue_shard_count() const { return queues_.size(); }

  /// Serving telemetry (monotonic counters). Each count is one
  /// obs::InstanceCounter: this per-scheduler snapshot stays exact (and
  /// thread-invariant — the same workload yields the same counts at any
  /// VERI_HVAC_THREADS), and the same add lands in the process-wide
  /// `serve_*` instrument. The batch-size and queue-depth histograms have
  /// no field here; they live in the registry only.
  struct Stats {
    std::uint64_t dt_served = 0;
    std::uint64_t mbrl_served = 0;
    std::uint64_t batches = 0;           ///< cross-session batches solved
    std::uint64_t batched_requests = 0;  ///< MBRL requests that rode a batch
    std::uint64_t max_batch = 0;         ///< largest batch observed
    /// Always 0: batches close when the queue is drained, never on a deadline.
    std::uint64_t deadline_closes = 0;
  };
  Stats stats() const;

 private:
  struct Pending {
    ControlRequest request;
    DecisionTicket ticket;
    std::promise<ControlDecision> promise;
  };

  struct ModelEntry {
    std::shared_ptr<const dyn::DynamicsModel> model;
    std::uint64_t generation = 0;
  };

  ControlDecision serve_dt(const ControlRequest& request);
  /// serve_dt() as a ready future: its decision, or the exception it threw.
  std::future<ControlDecision> ready_dt(const ControlRequest& request);
  ModelEntry model_for(const std::string& key) const;
  BoundedMpscQueue<Pending>& queue_for(SessionId session) {
    return *queues_[session % queues_.size()];
  }
  void worker_loop(std::size_t shard);
  /// Draws, scores and answers one coalesced batch (fulfills promises).
  void solve_batch(std::vector<Pending>& batch);

  SchedulerConfig config_;
  std::shared_ptr<const PolicyRegistry> registry_;
  std::shared_ptr<SessionManager> sessions_;
  control::ActionSpace actions_;
  control::RandomShooting rs_;
  std::shared_ptr<const common::TaskPool> pool_;

  mutable std::shared_mutex models_mutex_;
  std::map<std::string, ModelEntry> models_;
  std::uint64_t next_model_generation_ = 1;
  std::shared_ptr<DecisionTap> tap_;

  /// One queue per shard (session id % size routes); one worker each.
  std::vector<std::unique_ptr<BoundedMpscQueue<Pending>>> queues_;
  std::vector<std::thread> workers_;

  /// Exact per-scheduler counts, each also feeding its `serve_*` global.
  /// Sharded per thread: the DT fast path bumps dt_served_ on every
  /// decision, from every front-end core.
  obs::InstanceCounter dt_served_{"serve_dt_served_total"};
  obs::InstanceCounter mbrl_served_{"serve_mbrl_served_total"};
  obs::InstanceCounter batches_{"serve_batches_total"};
  obs::InstanceCounter batched_requests_{"serve_batched_requests_total"};
  std::atomic<std::uint64_t> max_batch_{0};

  /// Global instruments with no per-scheduler view.
  obs::Gauge& queue_depth_gauge_;
  obs::Histogram& shard_queue_depth_;
  obs::Histogram& batch_size_;
  obs::Histogram& dt_latency_;
  obs::Histogram& mbrl_solve_;
};

}  // namespace verihvac::serve
