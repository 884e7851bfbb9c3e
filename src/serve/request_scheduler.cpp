#include "serve/request_scheduler.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace verihvac::serve {

namespace {

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t observed = target.load(std::memory_order_relaxed);
  while (observed < value &&
         !target.compare_exchange_weak(observed, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

RequestScheduler::RequestScheduler(SchedulerConfig config,
                                   std::shared_ptr<const PolicyRegistry> registry,
                                   std::shared_ptr<SessionManager> sessions,
                                   control::RandomShootingConfig rs_config,
                                   control::ActionSpace actions, env::RewardConfig reward,
                                   std::shared_ptr<const common::TaskPool> pool)
    : config_(config),
      registry_(std::move(registry)),
      sessions_(std::move(sessions)),
      actions_(std::move(actions)),
      rs_(rs_config, actions_, reward),
      pool_(pool != nullptr ? std::move(pool) : common::TaskPool::shared()),
      queue_depth_gauge_(obs::gauge("serve_queue_depth")),
      shard_queue_depth_(obs::histogram("serve_shard_queue_depth")),
      batch_size_(obs::histogram("serve_batch_size")),
      dt_latency_(obs::histogram("serve_dt_latency_seconds")),
      mbrl_solve_(obs::histogram("serve_mbrl_solve_seconds")) {
  if (registry_ == nullptr || sessions_ == nullptr) {
    throw std::invalid_argument("RequestScheduler: registry and sessions must be non-null");
  }
  rs_.set_engine(std::make_shared<const control::RolloutEngine>(pool_));
  // Queue sharding defaults to the session manager's lock sharding so a
  // session's admissions and its batch queue share one shard index.
  const std::size_t shards =
      config_.queue_shards > 0 ? config_.queue_shards : sessions_->shard_count();
  queues_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    queues_.push_back(std::make_unique<BoundedMpscQueue<Pending>>(config_.queue_capacity));
  }
}

RequestScheduler::~RequestScheduler() { stop(); }

std::uint64_t RequestScheduler::install_model(const std::string& key,
                                              std::shared_ptr<const dyn::DynamicsModel> model) {
  std::unique_lock<std::shared_mutex> lock(models_mutex_);
  const std::uint64_t generation = next_model_generation_++;
  models_[key] = ModelEntry{std::move(model), generation};
  return generation;
}

void RequestScheduler::set_tap(std::shared_ptr<DecisionTap> tap) { tap_ = std::move(tap); }

RequestScheduler::ModelEntry RequestScheduler::model_for(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(models_mutex_);
  const auto it = models_.find(key);
  return it != models_.end() ? it->second : ModelEntry{};
}

void RequestScheduler::start() {
  if (running()) return;
  workers_.reserve(queues_.size());
  for (std::size_t shard = 0; shard < queues_.size(); ++shard) {
    workers_.emplace_back([this, shard] { worker_loop(shard); });
  }
}

void RequestScheduler::stop() {
  if (workers_.empty()) return;  // never started: the queues were never used
  for (const auto& queue : queues_) queue->close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // The workers drain their queues before exiting; fail anything that
  // could still be stranded (its admission already consumed a stream
  // index, so a silent drop would hang the caller's future), then reopen
  // so a later start() serves again.
  for (const auto& queue : queues_) {
    Pending leftover;
    while (queue->try_pop(leftover)) {
      leftover.promise.set_exception(std::make_exception_ptr(
          std::runtime_error("RequestScheduler: stopped before request was served")));
    }
    queue->reopen();
  }
}

std::size_t RequestScheduler::queue_depth() const {
  std::size_t total = 0;
  for (const auto& queue : queues_) total += queue->size();
  return total;
}

ControlDecision RequestScheduler::serve_dt(const ControlRequest& request) {
  DecisionTap* const tap = tap_.get();
  const std::size_t period = config_.dt_timing_sample_period;
  bool timed = false;
  if (tap != nullptr && period > 0) {
    // Sampled timing: one in P decisions per serving thread pays the two
    // clock reads. A thread-local countdown (no shared counter to bounce
    // between front-end cores, no per-decision divide — a % by the
    // runtime period costs several percent of the whole DT path) keeps
    // the duty cycle exact; which wall instants get sampled is timing
    // telemetry, not decision state, so thread-affinity is fine. Every
    // scheduler serving on this thread shares the countdown, so it is
    // clamped to this scheduler's period: a longer period left behind by
    // another scheduler must not delay this one's samples.
    thread_local std::uint64_t dt_timing_countdown = 0;
    if (dt_timing_countdown == 0 || dt_timing_countdown > period) dt_timing_countdown = period;
    timed = --dt_timing_countdown == 0;
  }
  const auto t0 =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};

  const DecisionTicket ticket =
      sessions_->begin_decision(request.session, RequestKind::kDtPolicy, request.observation);
  const PolicySnapshot snapshot = registry_->lookup(ticket.policy_key);
  const env::FeatureSchema& schema = snapshot.policy->schema();
  // Flattened into a per-thread row the walk reads in place: no
  // allocation per decision.
  thread_local std::vector<double> row;
  row.resize(schema.dims());
  schema.write_observation(request.observation, row.data());
  const std::size_t index = snapshot.policy->decide_index(row);
  dt_served_.add(1);

  ControlDecision decision;
  decision.action_index = index;
  decision.action = snapshot.policy->actions().action(index);
  decision.kind = RequestKind::kDtPolicy;
  decision.policy_version = snapshot.version;

  if (tap != nullptr) {
    DecisionEvent event;
    event.session = ticket.session;
    event.decision_index = ticket.stream;
    event.session_seed = ticket.seed;
    event.kind = RequestKind::kDtPolicy;
    event.policy_key = &ticket.policy_key;
    event.policy_version = snapshot.version;
    event.action_index = decision.action_index;
    event.action = decision.action;
    event.observation = &request.observation;
    event.schema = &schema;
    event.latency_seconds =
        timed ? std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count()
              : 0.0;
    event.timed = timed;
    if (timed) dt_latency_.observe(event.latency_seconds);
    tap->on_decision(event);
  }
  return decision;
}

ControlDecision RequestScheduler::serve(const ControlRequest& request) {
  if (request.kind == RequestKind::kDtPolicy) return serve_dt(request);
  return submit(request).get();
}

std::future<ControlDecision> RequestScheduler::submit(ControlRequest request) {
  if (request.kind == RequestKind::kDtPolicy) {
    std::promise<ControlDecision> promise;
    std::future<ControlDecision> future = promise.get_future();
    try {
      promise.set_value(serve_dt(request));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    return future;
  }

  Pending pending;
  // Admission order fixes the RNG stream: session counters advance in
  // submit order, so a decision's draws are pinned before any batching.
  pending.ticket =
      sessions_->begin_decision(request.session, request.kind, request.observation);
  const SessionId session = request.session;
  pending.request = std::move(request);
  std::future<ControlDecision> future = pending.promise.get_future();

  if (!running()) {
    // No scheduler threads: solve inline as a batch of one (the
    // per-session reference path; bit-identical to the batched path by
    // construction).
    std::vector<Pending> batch;
    batch.push_back(std::move(pending));
    solve_batch(batch);
    return future;
  }
  if (!queue_for(session).push(std::move(pending))) {
    throw std::runtime_error("RequestScheduler: queue closed during shutdown");
  }
  return future;
}

std::vector<ControlDecision> RequestScheduler::serve_batch(
    const std::vector<ControlRequest>& requests) {
  std::vector<ControlDecision> decisions(requests.size());
  std::vector<Pending> batch;
  std::vector<std::future<ControlDecision>> futures(requests.size());
  std::vector<bool> pending_slot(requests.size(), false);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ControlRequest& request = requests[i];
    if (request.kind == RequestKind::kDtPolicy) {
      decisions[i] = serve_dt(request);
      continue;
    }
    Pending pending;
    pending.ticket =
        sessions_->begin_decision(request.session, request.kind, request.observation);
    pending.request = request;
    futures[i] = pending.promise.get_future();
    pending_slot[i] = true;
    batch.push_back(std::move(pending));
  }
  if (!batch.empty()) solve_batch(batch);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (pending_slot[i]) decisions[i] = futures[i].get();
  }
  return decisions;
}

void RequestScheduler::worker_loop(std::size_t shard) {
  BoundedMpscQueue<Pending>& queue = *queues_[shard];
  Pending first;
  while (queue.pop(first)) {
    std::vector<Pending> batch;
    batch.push_back(std::move(first));
    // Work-conserving close: take what is already queued and solve now.
    // Whatever lands during the solve forms the next batch, so coalescing
    // follows backlog and an idle shard never waits for company.
    Pending next;
    while (batch.size() < config_.max_batch && queue.try_pop(next)) {
      batch.push_back(std::move(next));
    }
    // Queue depth at batch close — the backlog this shard's solve leaves
    // waiting — plus the all-shards gauge for the dashboard.
    shard_queue_depth_.observe(static_cast<double>(queue.size()));
    queue_depth_gauge_.set(static_cast<double>(queue_depth()));
    solve_batch(batch);
  }
}

void RequestScheduler::solve_batch(std::vector<Pending>& batch) {
  const obs::TraceSpan span("serve.batch_solve", "serve");
  const auto t_solve = std::chrono::steady_clock::now();
  struct Job {
    Pending* pending = nullptr;
    ModelEntry model;
    Rng rng;
    std::size_t action_index = 0;
  };

  // A request that cannot be solved fails its own future only; the rest of
  // the batch is solved without it, each request one decision of the solve.
  std::vector<Job> jobs;
  std::vector<control::RandomShooting::Decision> decisions;
  jobs.reserve(batch.size());  // decisions point into jobs: never reallocate
  decisions.reserve(batch.size());
  for (Pending& pending : batch) {
    try {
      ModelEntry entry = model_for(pending.ticket.policy_key);
      if (entry.model == nullptr) {
        throw std::runtime_error("RequestScheduler: no dynamics model installed for key '" +
                                 pending.ticket.policy_key + "'");
      }
      rs_.check_inputs(*entry.model, pending.request.observation, pending.request.forecast);
      // The decision's entire stochastic footprint: candidate draws from
      // the per-request counter-based stream fixed at admission.
      Job& job = jobs.emplace_back(Job{&pending, std::move(entry),
                                       Rng::stream(pending.ticket.seed, pending.ticket.stream)});
      decisions.push_back({*job.model.model, pending.request.observation,
                           pending.request.forecast, job.rng, std::span(&job.action_index, 1)});
    } catch (...) {
      pending.promise.set_exception(std::current_exception());
    }
  }
  try {
    rs_.solve(decisions, control::RandomShooting::Scoring::kEngine);
  } catch (...) {
    for (Job& job : jobs) job.pending->promise.set_exception(std::current_exception());
    return;
  }

  // Counters first, promises second: set_value releases the waiter, and a
  // caller reading stats() right after future.get() must already see this
  // batch counted (the promise's internal synchronization publishes the
  // relaxed stores sequenced before it).
  if (!jobs.empty()) {
    mbrl_served_.add(jobs.size());
    batches_.add(1);
    if (jobs.size() > 1) batched_requests_.add(jobs.size());
    atomic_max(max_batch_, jobs.size());
    batch_size_.observe(static_cast<double>(jobs.size()));
  }

  DecisionTap* const tap = tap_.get();
  // One clock read per batch (microseconds of solve behind it) buys the
  // solve-time histogram whether or not a tap is installed.
  const double solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_solve).count();
  if (!jobs.empty()) mbrl_solve_.observe(solve_seconds);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ControlDecision decision;
    decision.action_index = jobs[j].action_index;
    decision.action = actions_.action(decision.action_index);
    decision.kind = RequestKind::kMbrlFallback;
    decision.policy_version = 0;
    if (tap != nullptr) {
      // Tap before fulfilling: a caller that drains telemetry right after
      // future.get() must already see its own decision recorded.
      DecisionEvent event;
      event.session = jobs[j].pending->ticket.session;
      event.decision_index = jobs[j].pending->ticket.stream;
      event.session_seed = jobs[j].pending->ticket.seed;
      event.kind = RequestKind::kMbrlFallback;
      event.policy_key = &jobs[j].pending->ticket.policy_key;
      // MBRL events carry the serving model's generation where DT events
      // carry the bundle's registry version — replay needs to know which
      // hot-swapped model decided.
      event.policy_version = jobs[j].model.generation;
      event.action_index = decision.action_index;
      event.action = decision.action;
      event.observation = &jobs[j].pending->request.observation;
      event.schema = &jobs[j].model.model->schema();
      event.forecast = &jobs[j].pending->request.forecast;
      event.latency_seconds = solve_seconds;
      event.timed = true;
      tap->on_decision(event);
    }
    jobs[j].pending->promise.set_value(decision);
  }
}

RequestScheduler::Stats RequestScheduler::stats() const {
  Stats stats;
  stats.dt_served = dt_served_.value();
  stats.mbrl_served = mbrl_served_.value();
  stats.batches = batches_.value();
  stats.batched_requests = batched_requests_.value();
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace verihvac::serve
