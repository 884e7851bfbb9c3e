#include "serve/request_scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "control/rs_oracle.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "serve_test_utils.hpp"

namespace verihvac::serve {
namespace {

using testing::cold_occupied;
using testing::pool_with_threads;
using testing::steady_forecast;
using testing::toy_model;
using testing::toy_policy;

control::RandomShootingConfig serving_rs() {
  control::RandomShootingConfig config;
  config.samples = 32;
  config.horizon = 5;
  return config;
}

/// One logical request in a fixed fleet scenario: session slot + fresh
/// observation. Sessions are re-opened per scheduler instance (ids differ),
/// so tests describe requests by slot.
struct ScenarioRequest {
  std::size_t session_slot = 0;
  double zone_temp = 17.5;
};

/// A mixed-fleet scenario: several sessions, several decisions each, every
/// request with its own observation.
std::vector<ScenarioRequest> mixed_scenario() {
  std::vector<ScenarioRequest> scenario;
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t slot = 0; slot < 6; ++slot) {
      scenario.push_back({slot, 15.0 + static_cast<double>(slot) + 0.5 * round});
    }
  }
  return scenario;
}

std::uint64_t slot_seed(std::size_t slot) { return 1000 + 17 * slot; }

/// One decision of the scalar oracle (draws, scalar rollout_return,
/// strict-`>` argmax, refine) on the counter-based stream
/// Rng::stream(seed, stream) the scheduler admits the request under.
std::size_t oracle_decision(const control::RandomShootingConfig& rs_config,
                            const dyn::DynamicsModel& model, const env::Observation& obs,
                            const std::vector<env::Disturbance>& forecast, std::uint64_t seed,
                            std::uint64_t stream) {
  const control::ActionSpace actions;
  const control::RandomShooting rs(rs_config, actions, env::RewardConfig{});
  Rng rng = Rng::stream(seed, stream);
  return control::testing::oracle_optimize(rs, model, obs, forecast, rng, actions.size());
}

/// The per-session scalar reference: the oracle fed each request's
/// admission stream. It shares no code with the scheduler's solve, so the
/// test locks scheduler decisions to an independent implementation.
std::vector<std::size_t> reference_decisions(const std::vector<ScenarioRequest>& scenario,
                                             const dyn::DynamicsModel& model,
                                             const control::RandomShootingConfig& rs_config) {
  std::map<std::size_t, std::uint64_t> next_stream;
  std::vector<std::size_t> expected;
  for (const ScenarioRequest& item : scenario) {
    const env::Observation obs = cold_occupied(item.zone_temp);
    expected.push_back(oracle_decision(rs_config, model, obs,
                                       steady_forecast(obs, rs_config.horizon),
                                       slot_seed(item.session_slot),
                                       next_stream[item.session_slot]++));
  }
  return expected;
}

/// Serving stack around shared toy assets; fresh sessions per instance.
struct Stack {
  std::shared_ptr<PolicyRegistry> registry = std::make_shared<PolicyRegistry>();
  std::shared_ptr<SessionManager> sessions = std::make_shared<SessionManager>();
  std::unique_ptr<RequestScheduler> scheduler;
  std::vector<SessionId> slots;

  Stack(const std::shared_ptr<const core::DtPolicy>& policy,
        const std::shared_ptr<const dyn::DynamicsModel>& model,
        const control::RandomShootingConfig& rs_config, std::size_t threads,
        SchedulerConfig config = {}, std::size_t slot_count = 6) {
    registry->install("toy", policy);
    scheduler = std::make_unique<RequestScheduler>(config, registry, sessions, rs_config,
                                                   control::ActionSpace{}, env::RewardConfig{},
                                                   pool_with_threads(threads));
    scheduler->install_model("toy", model);
    for (std::size_t slot = 0; slot < slot_count; ++slot) {
      SessionConfig session;
      session.policy_key = "toy";
      session.seed = slot_seed(slot);
      slots.push_back(sessions->open(session));
    }
  }

  ControlRequest request(const ScenarioRequest& item, RequestKind kind,
                         std::size_t horizon) const {
    ControlRequest request;
    request.session = slots[item.session_slot];
    request.kind = kind;
    request.observation = cold_occupied(item.zone_temp);
    if (kind == RequestKind::kMbrlFallback) {
      request.forecast = steady_forecast(request.observation, horizon);
    }
    return request;
  }
};

TEST(RequestSchedulerTest, DtFastPathMatchesPolicyDecide) {
  const auto policy = toy_policy();
  Stack stack(policy, toy_model(), serving_rs(), /*threads=*/1);

  const env::Observation obs = cold_occupied();
  ControlRequest request;
  request.session = stack.slots[0];
  request.kind = RequestKind::kDtPolicy;
  request.observation = obs;

  const ControlDecision decision = stack.scheduler->serve(request);
  EXPECT_EQ(decision.action_index, policy->decide_index(obs.to_vector()));
  EXPECT_EQ(decision.kind, RequestKind::kDtPolicy);
  EXPECT_GE(decision.policy_version, 1u);
  EXPECT_DOUBLE_EQ(decision.action.heating_c,
                   policy->decide(obs.to_vector()).heating_c);

  const SessionState state = stack.sessions->snapshot(stack.slots[0]);
  EXPECT_EQ(state.dt_decisions, 1u);
  EXPECT_EQ(stack.scheduler->stats().dt_served, 1u);
}

// The acceptance-criteria lock: micro-batched cross-session serving is
// bit-identical to the per-session scalar path at every thread count
// (VERI_HVAC_THREADS=1/4/8 equivalents), for the same admission order.
TEST(RequestSchedulerTest, MicroBatchedDecisionsMatchScalarReferenceAcrossThreadCounts) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  const std::vector<ScenarioRequest> scenario = mixed_scenario();
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    Stack stack(policy, model, rs_config, threads);
    std::vector<ControlRequest> requests;
    for (const ScenarioRequest& item : scenario) {
      requests.push_back(stack.request(item, RequestKind::kMbrlFallback, rs_config.horizon));
    }
    const std::vector<ControlDecision> decisions = stack.scheduler->serve_batch(requests);
    ASSERT_EQ(decisions.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(decisions[i].action_index, expected[i])
          << "request " << i << " at " << threads << " threads";
      EXPECT_EQ(decisions[i].kind, RequestKind::kMbrlFallback);
    }
  }
}

// The queue path's lock: sharded async submission, drained into
// micro-batches however the workers happen to coalesce, is bit-identical
// to the per-session scalar reference at engine pools of 1/4/8 threads.
TEST(RequestSchedulerTest, AsyncQueueServingMatchesScalarReference) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  const std::vector<ScenarioRequest> scenario = mixed_scenario();
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    SchedulerConfig scheduler_config;
    scheduler_config.max_batch = 4;
    Stack stack(policy, model, rs_config, threads, scheduler_config);
    stack.scheduler->start();

    // Submission order fixes each session's streams at admission, so
    // however the queue drains into micro-batches, decisions must match.
    std::vector<std::future<ControlDecision>> futures;
    for (const ScenarioRequest& item : scenario) {
      futures.push_back(
          stack.scheduler->submit(stack.request(item, RequestKind::kMbrlFallback,
                                                rs_config.horizon)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().action_index, expected[i])
          << "request " << i << " at " << threads << " threads";
    }
    const RequestScheduler::Stats stats = stack.scheduler->stats();
    EXPECT_EQ(stats.mbrl_served, scenario.size());
    EXPECT_GE(stats.batches, 1u);
    stack.scheduler->stop();
  }
}

// Work-conserving close: a batch takes exactly what is queued when the
// worker comes back for it. The tap holds the worker inside its first
// batch while eight more requests queue up, so max_batch 4 must split that
// backlog into two full batches — with every decision still equal to the
// scalar reference.
/// Holds the shard worker inside its first batch's tap call until
/// release(), so the requests submitted meanwhile queue up and coalesce.
struct BlockingTap : DecisionTap {
  std::mutex mutex;
  std::condition_variable changed;
  bool entered = false;
  bool released = false;
  void on_decision(const DecisionEvent&) noexcept override {
    std::unique_lock<std::mutex> lock(mutex);
    if (entered) return;
    entered = true;
    changed.notify_all();
    changed.wait(lock, [this] { return released; });
  }
  bool wait_entered() {
    std::unique_lock<std::mutex> lock(mutex);
    return changed.wait_for(lock, std::chrono::seconds(60), [this] { return entered; });
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    changed.notify_all();
  }
};

TEST(RequestSchedulerTest, BacklogCoalescesUpToMaxBatch) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  std::vector<ScenarioRequest> scenario = mixed_scenario();
  scenario.resize(9);
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  SchedulerConfig scheduler_config;
  scheduler_config.queue_shards = 1;
  scheduler_config.max_batch = 4;
  Stack stack(policy, model, rs_config, /*threads=*/2, scheduler_config);
  const auto tap = std::make_shared<BlockingTap>();
  stack.scheduler->set_tap(tap);
  stack.scheduler->start();

  std::vector<std::future<ControlDecision>> futures;
  futures.push_back(stack.scheduler->submit(
      stack.request(scenario[0], RequestKind::kMbrlFallback, rs_config.horizon)));
  EXPECT_TRUE(tap->wait_entered());
  for (std::size_t i = 1; i < scenario.size(); ++i) {
    futures.push_back(stack.scheduler->submit(
        stack.request(scenario[i], RequestKind::kMbrlFallback, rs_config.horizon)));
  }
  EXPECT_EQ(stack.scheduler->queue_depth(), scenario.size() - 1);
  tap->release();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().action_index, expected[i]) << "request " << i;
  }
  const RequestScheduler::Stats stats = stack.scheduler->stats();
  EXPECT_EQ(stats.mbrl_served, scenario.size());
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.max_batch, 4u);
  EXPECT_EQ(stats.batched_requests, 8u);
  stack.scheduler->stop();
}

// Queue sharding shapes latency only: non-default shard counts must not
// change a single decision bit versus the scalar reference.
TEST(RequestSchedulerTest, ShardingPreservesDecisionBits) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  const std::vector<ScenarioRequest> scenario = mixed_scenario();
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  for (const std::size_t shards : {1u, 3u}) {
    SchedulerConfig scheduler_config;
    scheduler_config.queue_shards = shards;
    scheduler_config.max_batch = 4;
    Stack stack(policy, model, rs_config, /*threads=*/4, scheduler_config);
    ASSERT_EQ(stack.scheduler->queue_shard_count(), shards);
    stack.scheduler->start();

    std::vector<std::future<ControlDecision>> futures;
    for (const ScenarioRequest& item : scenario) {
      futures.push_back(
          stack.scheduler->submit(stack.request(item, RequestKind::kMbrlFallback,
                                                rs_config.horizon)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().action_index, expected[i])
          << "request " << i << " with " << shards << " queue shards";
    }
    EXPECT_EQ(stack.scheduler->stats().mbrl_served, scenario.size());
    stack.scheduler->stop();
  }
}

// The default queue sharding aligns to the session manager's lock shards,
// so a session's admissions and its batch queue share one shard index.
TEST(RequestSchedulerTest, DefaultQueueShardingMatchesSessionManager) {
  Stack stack(toy_policy(), toy_model(), serving_rs(), /*threads=*/1);
  EXPECT_EQ(stack.scheduler->queue_shard_count(), stack.sessions->shard_count());
}

TEST(RequestSchedulerTest, InlineServeWithoutWorkerMatchesScalarReference) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  const std::vector<ScenarioRequest> scenario = mixed_scenario();
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  Stack stack(policy, model, rs_config, /*threads=*/1);
  for (std::size_t i = 0; i < scenario.size(); ++i) {
    const ControlDecision decision = stack.scheduler->serve(
        stack.request(scenario[i], RequestKind::kMbrlFallback, rs_config.horizon));
    EXPECT_EQ(decision.action_index, expected[i]) << "request " << i;
  }
}

TEST(RequestSchedulerTest, StartStopStartServesAgain) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  // Two decisions on one session, across a stop()/start() cycle: streams
  // 0 and 1 of the session's seed, exactly as uninterrupted serving.
  const std::vector<ScenarioRequest> scenario = {{0, 17.0}, {0, 19.0}};
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  Stack stack(policy, model, rs_config, /*threads=*/2);
  stack.scheduler->start();
  EXPECT_EQ(stack.scheduler
                ->serve(stack.request(scenario[0], RequestKind::kMbrlFallback,
                                      rs_config.horizon))
                .action_index,
            expected[0]);
  stack.scheduler->stop();
  EXPECT_FALSE(stack.scheduler->running());
  stack.scheduler->start();
  EXPECT_TRUE(stack.scheduler->running());
  EXPECT_EQ(stack.scheduler
                ->serve(stack.request(scenario[1], RequestKind::kMbrlFallback,
                                      rs_config.horizon))
                .action_index,
            expected[1]);
  stack.scheduler->stop();
}

TEST(RequestSchedulerTest, RefineFirstActionParity) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  control::RandomShootingConfig rs_config = serving_rs();
  rs_config.samples = 16;
  rs_config.refine_first_action = true;
  const std::vector<ScenarioRequest> scenario = {{0, 16.0}, {1, 19.5}, {0, 21.0}};
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  Stack stack(policy, model, rs_config, /*threads=*/4);
  std::vector<ControlRequest> requests;
  for (const ScenarioRequest& item : scenario) {
    requests.push_back(stack.request(item, RequestKind::kMbrlFallback, rs_config.horizon));
  }
  const std::vector<ControlDecision> decisions = stack.scheduler->serve_batch(requests);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decisions[i].action_index, expected[i]) << "request " << i;
  }
}

TEST(RequestSchedulerTest, MixedBatchServesBothTrafficClasses) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  const std::vector<ScenarioRequest> scenario = {{0, 16.0}, {1, 18.0}, {2, 20.0}, {3, 22.0}};
  // Slots 0/2 take the fast path; slots 1/3 the fallback. The fallback
  // reference uses each session's stream 0 (its first decision).
  const std::vector<ScenarioRequest> mbrl_only = {{1, 18.0}, {3, 22.0}};
  const std::vector<std::size_t> expected_mbrl =
      reference_decisions(mbrl_only, *model, rs_config);

  Stack stack(policy, model, rs_config, /*threads=*/4);
  std::vector<ControlRequest> requests;
  requests.push_back(stack.request(scenario[0], RequestKind::kDtPolicy, 0));
  requests.push_back(stack.request(scenario[1], RequestKind::kMbrlFallback, rs_config.horizon));
  requests.push_back(stack.request(scenario[2], RequestKind::kDtPolicy, 0));
  requests.push_back(stack.request(scenario[3], RequestKind::kMbrlFallback, rs_config.horizon));

  const std::vector<ControlDecision> decisions = stack.scheduler->serve_batch(requests);
  EXPECT_EQ(decisions[0].action_index,
            policy->decide_index(cold_occupied(16.0).to_vector()));
  EXPECT_EQ(decisions[2].action_index,
            policy->decide_index(cold_occupied(20.0).to_vector()));
  EXPECT_EQ(decisions[1].action_index, expected_mbrl[0]);
  EXPECT_EQ(decisions[3].action_index, expected_mbrl[1]);

  const RequestScheduler::Stats stats = stack.scheduler->stats();
  EXPECT_EQ(stats.dt_served, 2u);
  EXPECT_EQ(stats.mbrl_served, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 2u);
}

TEST(RequestSchedulerTest, HotSwappedBundleServesNewVersion) {
  const auto policy_a = toy_policy(3);
  const auto policy_b = toy_policy(11);
  Stack stack(policy_a, toy_model(), serving_rs(), /*threads=*/1);

  const env::Observation obs = cold_occupied();
  ControlRequest request;
  request.session = stack.slots[0];
  request.kind = RequestKind::kDtPolicy;
  request.observation = obs;

  const ControlDecision before = stack.scheduler->serve(request);
  const std::uint64_t new_version = stack.registry->install("toy", policy_b);
  const ControlDecision after = stack.scheduler->serve(request);

  EXPECT_LT(before.policy_version, new_version);
  EXPECT_EQ(after.policy_version, new_version);
  EXPECT_EQ(after.action_index, policy_b->decide_index(obs.to_vector()));
}

TEST(RequestSchedulerTest, ErrorsSurfaceAsExceptions) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  Stack stack(policy, model, rs_config, /*threads=*/1);

  // Unknown session: rejected at admission.
  ControlRequest unknown;
  unknown.session = 99999;
  unknown.kind = RequestKind::kDtPolicy;
  unknown.observation = cold_occupied();
  EXPECT_THROW(stack.scheduler->serve(unknown), std::out_of_range);

  // Forecast shorter than the optimizer horizon: surfaced via the future.
  ControlRequest short_forecast = stack.request({0, 17.0}, RequestKind::kMbrlFallback, 2);
  EXPECT_THROW(stack.scheduler->serve(short_forecast), std::invalid_argument);

  // Session whose key has neither a dedicated nor a default model.
  SessionConfig orphan;
  orphan.policy_key = "no-model";
  const SessionId orphan_id = stack.sessions->open(orphan);
  ControlRequest no_model = stack.request({0, 17.0}, RequestKind::kMbrlFallback,
                                          rs_config.horizon);
  no_model.session = orphan_id;
  EXPECT_THROW(stack.scheduler->serve(no_model), std::runtime_error);

  // Errors must not poison subsequent serving.
  const ControlDecision decision = stack.scheduler->serve(
      stack.request({1, 18.0}, RequestKind::kMbrlFallback, rs_config.horizon));
  EXPECT_LT(decision.action_index, control::ActionSpace{}.size());
}

// A NaN zone temperature or an infinite forecast value must not be served
// (a NaN's comfort penalty is 0, so the argmax would pick a setback for a
// cold occupied zone): each fails its own future.
TEST(RequestSchedulerTest, NonFiniteRequestsAreRejected) {
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  Stack stack(toy_policy(), model, rs_config, /*threads=*/4);

  ControlRequest nan_zone = stack.request({0, 17.5}, RequestKind::kMbrlFallback,
                                          rs_config.horizon);
  nan_zone.observation.zone_temp_c = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(stack.scheduler->serve(nan_zone), std::invalid_argument);

  ControlRequest inf_outdoor = stack.request({0, 17.5}, RequestKind::kMbrlFallback,
                                             rs_config.horizon);
  inf_outdoor.forecast[2].weather.outdoor_temp_c = std::numeric_limits<double>::infinity();
  EXPECT_THROW(stack.scheduler->serve(inf_outdoor), std::invalid_argument);
  EXPECT_EQ(stack.scheduler->stats().mbrl_served, 0u);

  // The rejected requests consumed streams 0 and 1 of slot 0 at admission.
  const env::Observation obs = cold_occupied(17.5);
  const std::vector<env::Disturbance> forecast = steady_forecast(obs, rs_config.horizon);
  EXPECT_EQ(stack.scheduler
                ->serve(stack.request({0, 17.5}, RequestKind::kMbrlFallback, rs_config.horizon))
                .action_index,
            oracle_decision(rs_config, *model, obs, forecast, slot_seed(0), 2));
}

// Bad requests coalesced into one micro-batch with good ones fail alone:
// every batch-mate still equals the scalar oracle and is counted served.
TEST(RequestSchedulerTest, BadRequestFailsAloneInItsBatch) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  std::vector<ScenarioRequest> scenario = mixed_scenario();
  scenario.resize(5);
  const std::vector<std::size_t> expected = reference_decisions(scenario, *model, rs_config);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    SchedulerConfig scheduler_config;
    scheduler_config.queue_shards = 1;
    Stack stack(policy, model, rs_config, threads, scheduler_config);
    const auto tap = std::make_shared<BlockingTap>();
    stack.scheduler->set_tap(tap);
    stack.scheduler->start();

    // Slot 5 carries the bad requests, so the good slots' streams match
    // the reference.
    ControlRequest nan_zone = stack.request({5, 17.5}, RequestKind::kMbrlFallback,
                                            rs_config.horizon);
    nan_zone.observation.zone_temp_c = std::numeric_limits<double>::quiet_NaN();
    ControlRequest inf_outdoor = stack.request({5, 17.5}, RequestKind::kMbrlFallback,
                                               rs_config.horizon);
    inf_outdoor.forecast[1].weather.outdoor_temp_c = -std::numeric_limits<double>::infinity();

    std::vector<std::future<ControlDecision>> good;
    good.push_back(stack.scheduler->submit(
        stack.request(scenario[0], RequestKind::kMbrlFallback, rs_config.horizon)));
    EXPECT_TRUE(tap->wait_entered());
    good.push_back(stack.scheduler->submit(
        stack.request(scenario[1], RequestKind::kMbrlFallback, rs_config.horizon)));
    std::future<ControlDecision> bad_nan = stack.scheduler->submit(nan_zone);
    good.push_back(stack.scheduler->submit(
        stack.request(scenario[2], RequestKind::kMbrlFallback, rs_config.horizon)));
    std::future<ControlDecision> bad_inf = stack.scheduler->submit(inf_outdoor);
    for (std::size_t i = 3; i < scenario.size(); ++i) {
      good.push_back(stack.scheduler->submit(
          stack.request(scenario[i], RequestKind::kMbrlFallback, rs_config.horizon)));
    }
    EXPECT_EQ(stack.scheduler->queue_depth(), 6u);
    tap->release();

    EXPECT_THROW(bad_nan.get(), std::invalid_argument);
    EXPECT_THROW(bad_inf.get(), std::invalid_argument);
    for (std::size_t i = 0; i < good.size(); ++i) {
      EXPECT_EQ(good[i].get().action_index, expected[i])
          << "request " << i << " at " << threads << " threads";
    }
    const RequestScheduler::Stats stats = stack.scheduler->stats();
    EXPECT_EQ(stats.mbrl_served, scenario.size());
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.max_batch, 4u);
    stack.scheduler->stop();
  }
}

// A solve that throws past the input check (here: an untrained model)
// fails its batch's futures; the shard worker survives and keeps serving.
TEST(RequestSchedulerTest, FailedSolveFailsItsBatchNotTheShardWorker) {
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  Stack stack(toy_policy(), model, rs_config, /*threads=*/2);
  stack.scheduler->install_model("untrained",
                                 std::make_shared<dyn::DynamicsModel>(dyn::DynamicsModelConfig{}));
  SessionConfig untrained_session;
  untrained_session.policy_key = "untrained";
  const SessionId untrained_id = stack.sessions->open(untrained_session);
  stack.scheduler->start();

  ControlRequest bad = stack.request({0, 17.5}, RequestKind::kMbrlFallback, rs_config.horizon);
  bad.session = untrained_id;
  EXPECT_THROW(stack.scheduler->serve(bad), std::logic_error);

  const env::Observation obs = cold_occupied(17.5);
  EXPECT_EQ(stack.scheduler
                ->serve(stack.request({0, 17.5}, RequestKind::kMbrlFallback, rs_config.horizon))
                .action_index,
            oracle_decision(rs_config, *model, obs, steady_forecast(obs, rs_config.horizon),
                            slot_seed(0), 0));
  EXPECT_EQ(stack.scheduler->stats().mbrl_served, 1u);
  stack.scheduler->stop();
}

// A key with no installed model fails only its own request: the other
// request of the same serve_batch is solved, counted and tapped as if it
// had come alone. serve_batch rethrows the failure, so the tap is where
// the surviving decision shows.
TEST(RequestSchedulerTest, KeyWithoutModelFailsOnlyItsOwnFuture) {
  struct MbrlTap : DecisionTap {
    std::vector<DecisionEvent> events;
    void on_decision(const DecisionEvent& event) noexcept override {
      if (event.kind == RequestKind::kMbrlFallback) events.push_back(event);
    }
  };
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  Stack stack(toy_policy(), model, rs_config, /*threads=*/1);
  const auto tap = std::make_shared<MbrlTap>();
  stack.scheduler->set_tap(tap);

  SessionConfig session;
  session.policy_key = "no-model";
  ControlRequest missing =
      stack.request({0, 17.0}, RequestKind::kMbrlFallback, rs_config.horizon);
  missing.session = stack.sessions->open(session);
  const ControlRequest installed =
      stack.request({1, 17.5}, RequestKind::kMbrlFallback, rs_config.horizon);
  EXPECT_THROW(stack.scheduler->serve_batch({missing, installed}), std::runtime_error);

  ASSERT_EQ(tap->events.size(), 1u);
  EXPECT_EQ(tap->events[0].session, installed.session);
  EXPECT_EQ(tap->events[0].action_index,
            oracle_decision(rs_config, *model, installed.observation, installed.forecast,
                            slot_seed(1), 0));
  const RequestScheduler::Stats stats = stack.scheduler->stats();
  EXPECT_EQ(stats.mbrl_served, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

// Observability must observe, never steer: decisions AND the exact Stats
// counters are invariant across pool sizes even with tracing enabled and
// instruments publishing (the PR-9 never-perturb invariant, scheduler leg).
TEST(RequestSchedulerTest, StatsCountersAreThreadCountInvariantWithObsEnabled) {
  const auto policy = toy_policy();
  const auto model = toy_model();
  const control::RandomShootingConfig rs_config = serving_rs();
  const std::vector<ScenarioRequest> scenario = mixed_scenario();

  // Each DT decision consumes the session's next decision index at
  // admission, so the MBRL requests that follow draw streams offset by the
  // slot's DT count — the scalar reference must admit in the same order.
  std::map<std::size_t, std::uint64_t> next_stream;
  for (const ScenarioRequest& item : scenario) ++next_stream[item.session_slot];
  std::vector<std::size_t> expected;
  for (const ScenarioRequest& item : scenario) {
    const env::Observation obs = cold_occupied(item.zone_temp);
    expected.push_back(oracle_decision(rs_config, *model, obs,
                                       steady_forecast(obs, rs_config.horizon),
                                       slot_seed(item.session_slot),
                                       next_stream[item.session_slot]++));
  }

  obs::TraceCollector::global().enable();
  std::vector<RequestScheduler::Stats> all_stats;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    Stack stack(policy, model, rs_config, threads);
    for (const ScenarioRequest& item : scenario) {
      stack.scheduler->serve(stack.request(item, RequestKind::kDtPolicy, 0));
    }
    std::vector<ControlRequest> requests;
    for (const ScenarioRequest& item : scenario) {
      requests.push_back(stack.request(item, RequestKind::kMbrlFallback, rs_config.horizon));
    }
    const std::vector<ControlDecision> decisions = stack.scheduler->serve_batch(requests);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(decisions[i].action_index, expected[i])
          << "request " << i << " at " << threads << " threads";
    }
    all_stats.push_back(stack.scheduler->stats());
  }
  obs::TraceCollector::global().disable();
  obs::TraceCollector::global().clear();

  for (std::size_t i = 1; i < all_stats.size(); ++i) {
    EXPECT_EQ(all_stats[i].dt_served, all_stats[0].dt_served);
    EXPECT_EQ(all_stats[i].mbrl_served, all_stats[0].mbrl_served);
    EXPECT_EQ(all_stats[i].batches, all_stats[0].batches);
    EXPECT_EQ(all_stats[i].batched_requests, all_stats[0].batched_requests);
  }
  EXPECT_EQ(all_stats[0].dt_served, scenario.size());
  EXPECT_EQ(all_stats[0].mbrl_served, scenario.size());
}

// The per-scheduler Stats and the process-wide `serve_*` counters count
// the same events: over one scheduler's lifetime each global delta equals
// the matching Stats field (DT inline, one coalesced batch, lone inline
// solves and worker-thread batches).
TEST(RequestSchedulerTest, StatsMatchGlobalCounterDeltas) {
  const char* const names[] = {"serve_dt_served_total", "serve_mbrl_served_total",
                               "serve_batches_total", "serve_batched_requests_total"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(obs::counter(name).value());

  const control::RandomShootingConfig rs_config = serving_rs();
  Stack stack(toy_policy(), toy_model(), rs_config, /*threads=*/2);
  const std::vector<ScenarioRequest> scenario = mixed_scenario();
  std::vector<ControlRequest> mbrl;
  for (const ScenarioRequest& item : scenario) {
    stack.scheduler->serve(stack.request(item, RequestKind::kDtPolicy, 0));
    mbrl.push_back(stack.request(item, RequestKind::kMbrlFallback, rs_config.horizon));
  }
  stack.scheduler->serve_batch(mbrl);
  stack.scheduler->serve(mbrl.front());
  stack.scheduler->start();
  std::vector<std::future<ControlDecision>> futures;
  for (const ControlRequest& request : mbrl) futures.push_back(stack.scheduler->submit(request));
  for (auto& future : futures) future.get();
  stack.scheduler->stop();

  const RequestScheduler::Stats stats = stack.scheduler->stats();
  EXPECT_EQ(stats.dt_served, scenario.size());
  EXPECT_EQ(stats.mbrl_served, 2 * scenario.size() + 1);
  EXPECT_GE(stats.batched_requests, scenario.size());
  const std::uint64_t expected[] = {stats.dt_served, stats.mbrl_served, stats.batches,
                                    stats.batched_requests};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], expected[i]) << names[i];
  }
}

// Sampled DT timing: with period P and a tap installed, exactly 1-in-P DT
// decisions are timed, and each timed latency also lands in the obs
// histogram (`serve_dt_latency_seconds`).
TEST(RequestSchedulerTest, SampledDtTimingFeedsTapAndObsHistogram) {
  struct CountingTap : DecisionTap {
    std::size_t events = 0;
    std::size_t timed = 0;
    void on_decision(const DecisionEvent& event) noexcept override {
      ++events;
      if (event.timed) {
        ++timed;
        EXPECT_GT(event.latency_seconds, 0.0);
      }
    }
  };

  const auto policy = toy_policy();
  SchedulerConfig config;
  config.dt_timing_sample_period = 4;
  Stack stack(policy, toy_model(), serving_rs(), /*threads=*/1, config);
  const auto tap = std::make_shared<CountingTap>();
  stack.scheduler->set_tap(tap);

  const std::uint64_t histogram_before =
      obs::histogram("serve_dt_latency_seconds").snapshot().count;
  constexpr std::size_t kDecisions = 16;
  for (std::size_t i = 0; i < kDecisions; ++i) {
    stack.scheduler->serve(stack.request({i % 6, 16.0 + static_cast<double>(i)},
                                         RequestKind::kDtPolicy, 0));
  }
  const std::uint64_t histogram_after =
      obs::histogram("serve_dt_latency_seconds").snapshot().count;

  EXPECT_EQ(tap->events, kDecisions);
  EXPECT_EQ(tap->timed, kDecisions / 4);
  EXPECT_EQ(histogram_after - histogram_before, kDecisions / 4);
}

// The sampled-timing countdown is per thread, not per scheduler: a
// scheduler serving right after one with a longer period must still time
// exactly 1-in-P of its own decisions.
TEST(RequestSchedulerTest, SampledDtTimingIsolatesSchedulersSharingAThread) {
  struct CountingTap : DecisionTap {
    std::size_t timed = 0;
    void on_decision(const DecisionEvent& event) noexcept override {
      if (event.timed) ++timed;
    }
  };

  const auto policy = toy_policy();
  const auto model = toy_model();
  SchedulerConfig slow;
  slow.dt_timing_sample_period = 32;
  SchedulerConfig fast;
  fast.dt_timing_sample_period = 4;
  Stack a(policy, model, serving_rs(), /*threads=*/1, slow);
  Stack b(policy, model, serving_rs(), /*threads=*/1, fast);
  // Both need a tap: only tapped schedulers run the countdown.
  const auto tap_a = std::make_shared<CountingTap>();
  const auto tap_b = std::make_shared<CountingTap>();
  a.scheduler->set_tap(tap_a);
  b.scheduler->set_tap(tap_b);

  a.scheduler->serve(a.request({0, 18.0}, RequestKind::kDtPolicy, 0));
  constexpr std::size_t kDecisions = 16;
  for (std::size_t i = 0; i < kDecisions; ++i) {
    b.scheduler->serve(b.request({i % 6, 16.0 + static_cast<double>(i)},
                                 RequestKind::kDtPolicy, 0));
  }
  EXPECT_EQ(tap_b->timed, kDecisions / 4);
}

}  // namespace
}  // namespace verihvac::serve
