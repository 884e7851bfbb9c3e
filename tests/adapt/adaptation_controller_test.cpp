// Closed-loop adaptation: drift in telemetry -> retrain -> certify ->
// shadow gate -> hot-swap, with the certified-promotion guarantee and
// seeded determinism locked by tests.
#include "adapt/adaptation_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve_test_utils.hpp"

namespace verihvac::adapt {
namespace {

using serve::testing::cold_occupied;
using serve::testing::pool_with_threads;
using serve::testing::toy_plant;
using serve::testing::toy_policy;

/// The building after equipment wear: heating delivers 30% less than the
/// historical plant the model was trained on (drifted equilibrium ~19.2 C
/// at 15 C outdoors vs ~21.2 C healthy — detectable, still certifiable
/// inside the test's wide comfort band).
double drifted_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const double t = x[env::kZoneTemp];
  double dt = 0.08 * (x[env::kOutdoorTemp] - t);
  if (t < a.heating_c) dt += 0.28 * std::min(a.heating_c - t, 1.2);
  if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
  return t + dt;
}

/// Dynamics model trained on toy_plant over the region the telemetry
/// trajectories actually visit (mild shoulder-season outdoors), so the
/// pre-drift residual baseline is small and the drift shift stands out.
std::shared_ptr<const dyn::DynamicsModel> loop_model() {
  Rng rng(1);
  dyn::TransitionDataset data;
  for (int i = 0; i < 1500; ++i) {
    dyn::Transition t;
    t.input = {rng.uniform(17.0, 24.0), rng.uniform(12.0, 18.0), 50.0, 3.0,
               rng.uniform(0.0, 400.0), 11.0};
    t.action.heating_c = 22.5;
    t.action.cooling_c = 26.0;
    t.next_zone_temp = toy_plant(t.input, t.action);
    data.add(t);
  }
  dyn::DynamicsModelConfig config;
  config.trainer.epochs = 60;
  auto model = std::make_shared<dyn::DynamicsModel>(config);
  model->train(data);
  return model;
}

/// One serving stack + telemetry + controller over the shared toy assets.
struct Loop {
  std::shared_ptr<TelemetryLog> log = std::make_shared<TelemetryLog>();
  std::shared_ptr<serve::PolicyRegistry> registry = std::make_shared<serve::PolicyRegistry>();
  std::shared_ptr<serve::SessionManager> sessions = std::make_shared<serve::SessionManager>();
  std::unique_ptr<serve::RequestScheduler> scheduler;
  std::unique_ptr<AdaptationController> controller;
  std::shared_ptr<const dyn::DynamicsModel> model;
  std::uint64_t base_policy_version = 0;
  serve::SessionId session = 0;
  std::uint64_t next_decision = 0;
  double zone_temp = 20.4;

  explicit Loop(const AdaptationConfig& config, std::size_t threads = 2,
                std::shared_ptr<dyn::EnsembleDynamics> ensemble = nullptr) {
    model = loop_model();
    const auto policy = toy_policy();
    base_policy_version = registry->install("toy", policy);
    scheduler = std::make_unique<serve::RequestScheduler>(
        serve::SchedulerConfig{}, registry, sessions, control::RandomShootingConfig{16, 3, 0.99},
        control::ActionSpace{}, env::RewardConfig{}, pool_with_threads(threads));
    scheduler->install_model("toy", model);
    scheduler->set_tap(log);

    controller = std::make_unique<AdaptationController>(config, log, registry, sessions,
                                                        *scheduler, pool_with_threads(threads));
    ClusterAssets assets;
    assets.model = model;
    assets.ensemble = std::move(ensemble);
    assets.env.days = 1;
    controller->register_cluster("toy", assets);

    serve::SessionConfig session_config;
    session_config.policy_key = "toy";
    session_config.seed = 4242;
    session = sessions->open(session_config);
    log->register_session(session, session_config.seed, session_config.policy_key);
  }

  /// Emits `n` telemetry decisions whose next states follow `plant`:
  /// an occupied trajectory at mild outdoors under a fixed setpoint
  /// command, settling around 21 C on the healthy plant.
  template <typename Plant>
  void emit_decisions(std::size_t n, Plant&& plant) {
    const sim::SetpointPair action{22.5, 26.0};
    for (std::size_t i = 0; i < n; ++i) {
      env::Observation obs = cold_occupied(zone_temp);
      obs.weather.outdoor_temp_c = 15.0;
      const std::string key = "toy";
      serve::DecisionEvent event;
      event.session = session;
      event.decision_index = next_decision++;
      event.session_seed = 4242;
      event.kind = serve::RequestKind::kDtPolicy;
      event.policy_key = &key;
      event.policy_version = base_policy_version;
      event.action_index = 0;
      event.action = action;
      event.observation = &obs;
      log->on_decision(event);

      zone_temp = plant(obs.to_vector(), action);
    }
  }
};

AdaptationConfig quick_config() {
  AdaptationConfig config;
  config.drift.ph_delta = 0.01;
  config.drift.ph_lambda = 0.5;
  config.drift.min_samples = 16;
  config.min_transitions = 48;
  config.fine_tune_epochs = 10;
  config.probabilistic_samples = 150;
  // Mechanism under test is the loop, not paper-grade safety: a wide
  // comfort band and a modest threshold keep toy-plant certification
  // stable; the bench drives the real thresholds on real pipeline assets.
  config.criteria.comfort = {17.0, 26.0};
  config.criteria.safe_probability_threshold = 0.5;
  config.viper.iterations = 2;
  config.viper.steps_per_iteration = 12;
  config.viper.mc_repeats = 1;
  config.teacher_rs = {12, 3, 0.99};
  config.seed = 99;
  return config;
}

TEST(AdaptationControllerTest, QuietTelemetryNeverAdapts) {
  Loop loop(quick_config());
  loop.emit_decisions(120, toy_plant);
  EXPECT_EQ(loop.controller->pump(), 0u);
  EXPECT_FALSE(loop.controller->monitor().drifted("toy"));
  EXPECT_TRUE(loop.controller->history().empty());
  EXPECT_GT(loop.controller->stats().transitions, 0u);
}

TEST(AdaptationControllerTest, DriftTriggersCertifiedPromotionAndHotSwap) {
  Loop loop(quick_config());
  // Healthy phase establishes the residual baseline, then the plant
  // degrades underneath the same serving stack.
  loop.emit_decisions(80, toy_plant);
  ASSERT_EQ(loop.controller->pump(), 0u);
  loop.emit_decisions(120, drifted_plant);
  const std::size_t attempts = loop.controller->pump();
  ASSERT_EQ(attempts, 1u);

  const auto history = loop.controller->history();
  ASSERT_EQ(history.size(), 1u);
  const AdaptationReport& report = history.front();
  EXPECT_EQ(report.cluster, "toy");
  EXPECT_GT(report.train_transitions, 0u);
  EXPECT_GT(report.holdout_transitions, 0u);
  ASSERT_TRUE(report.certified) << "formal pass=" << report.formal.all_pass()
                                << " safe_prob=" << report.probabilistic.safe_probability;
  EXPECT_TRUE(report.formal.all_pass());
  ASSERT_TRUE(report.promoted);

  // The hot swap actually landed: new bundle version in the registry, new
  // model generation in the scheduler, fresh drift baseline.
  EXPECT_GT(report.promoted_policy_version, loop.base_policy_version);
  EXPECT_EQ(loop.registry->lookup("toy").version, report.promoted_policy_version);
  EXPECT_GT(report.promoted_model_generation, 1u);
  EXPECT_FALSE(loop.controller->monitor().drifted("toy"));
  EXPECT_EQ(loop.controller->stats().adaptations_promoted, 1u);

  // In-flight serving never noticed: a DT request on the session still
  // answers, now on the promoted bundle.
  serve::ControlRequest request;
  request.session = loop.session;
  request.kind = serve::RequestKind::kDtPolicy;
  request.observation = cold_occupied(21.0);
  EXPECT_EQ(loop.scheduler->serve(request).policy_version, report.promoted_policy_version);
}

// The per-controller Stats and the process-wide `adapt_*` counters count
// the same events: drift, then an attempt, then a promotion, with every
// global delta equal to the matching Stats field.
TEST(AdaptationControllerTest, StatsMatchGlobalCounterDeltas) {
  const char* const names[] = {"adapt_records_drained_total", "adapt_records_lost_total",
                               "adapt_transitions_total",     "adapt_drift_events_total",
                               "adapt_attempts_total",        "adapt_promotions_total",
                               "adapt_sessions_evicted_total"};
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(obs::counter(name).value());

  Loop loop(quick_config());
  loop.emit_decisions(80, toy_plant);
  ASSERT_EQ(loop.controller->pump(), 0u);
  loop.emit_decisions(120, drifted_plant);
  ASSERT_EQ(loop.controller->pump(), 1u);

  const AdaptationController::Stats stats = loop.controller->stats();
  EXPECT_GT(stats.records_drained, 0u);
  EXPECT_GT(stats.transitions, 0u);
  EXPECT_EQ(stats.drift_events, 1u);
  EXPECT_EQ(stats.adaptations_attempted, 1u);
  EXPECT_EQ(stats.adaptations_promoted, 1u);
  const std::uint64_t expected[] = {stats.records_drained,       stats.records_lost,
                                    stats.transitions,           stats.drift_events,
                                    stats.adaptations_attempted, stats.adaptations_promoted,
                                    stats.sessions_evicted};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], expected[i]) << names[i];
  }
}

TEST(AdaptationControllerTest, PromotionIsDeterministicAcrossThreadCounts) {
  // Same telemetry, pools of 1 vs 4 threads: the promoted bundle and the
  // certification numbers must agree bit-for-bit (the engines' lock-step
  // invariants carried through the whole loop).
  std::vector<std::string> policy_texts;
  std::vector<double> safe_probs;
  for (const std::size_t threads : {1u, 4u}) {
    Loop loop(quick_config(), threads);
    loop.emit_decisions(80, toy_plant);
    loop.controller->pump();
    loop.emit_decisions(120, drifted_plant);
    loop.controller->pump();
    const auto history = loop.controller->history();
    ASSERT_EQ(history.size(), 1u);
    ASSERT_TRUE(history.front().promoted);
    policy_texts.push_back(loop.registry->lookup("toy").policy->to_text());
    safe_probs.push_back(history.front().probabilistic.safe_probability);
  }
  EXPECT_EQ(policy_texts[0], policy_texts[1]);
  EXPECT_EQ(safe_probs[0], safe_probs[1]);
}

TEST(AdaptationControllerTest, RedistillationRunsOnTheControllersPool) {
  // A one-thread controller pool scores every VIPER rollout inline, so an
  // adaptation's only pool fan-outs are certification's handful. A teacher
  // attached to any wider pool would add at least one per VIPER step.
  if (common::TaskPool::shared()->thread_count() == 1) {
    GTEST_SKIP() << "the shared pool is serial too; a misattached teacher is invisible";
  }
  static std::atomic<std::size_t> fanouts{0};
  const AdaptationConfig config = quick_config();
  Loop loop(config, /*threads=*/1);
  loop.emit_decisions(80, toy_plant);
  loop.controller->pump();
  loop.emit_decisions(120, drifted_plant);
  const common::TaskPool::MetricsHook previous = common::TaskPool::set_metrics_hook(
      [](std::size_t, double, std::size_t) { fanouts.fetch_add(1, std::memory_order_relaxed); });
  loop.controller->pump();
  common::TaskPool::set_metrics_hook(previous);
  ASSERT_EQ(loop.controller->history().size(), 1u);
  EXPECT_LT(fanouts.load(), config.viper.steps_per_iteration);
}

TEST(AdaptationControllerTest, UncertifiableBundleIsNeverPromoted) {
  AdaptationConfig config = quick_config();
  config.criteria.safe_probability_threshold = 1.1;  // unsatisfiable: p <= 1
  Loop loop(config);
  loop.emit_decisions(80, toy_plant);
  loop.controller->pump();
  loop.emit_decisions(120, drifted_plant);
  loop.controller->pump();

  const auto history = loop.controller->history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_FALSE(history.front().certified);
  EXPECT_FALSE(history.front().promoted);
  // The registry still serves the original bundle.
  EXPECT_EQ(loop.registry->lookup("toy").version, loop.base_policy_version);
  EXPECT_EQ(loop.controller->stats().adaptations_promoted, 0u);

  // A failed attempt must not dead-end the cluster (the monitor alarm
  // stays latched, so no new event will arrive): it retries — but only
  // once materially fresh telemetry accumulated, never in a tight loop.
  EXPECT_EQ(loop.controller->pump(), 0u);  // nothing new yet
  loop.emit_decisions(60, drifted_plant);  // >= min_transitions fresh
  EXPECT_EQ(loop.controller->pump(), 1u);
  EXPECT_EQ(loop.controller->history().size(), 2u);
}

TEST(AdaptationControllerTest, ShadowGateBlocksPromotion) {
  AdaptationConfig config = quick_config();
  // Candidate must beat the incumbent by a full violation-rate point —
  // impossible, so even a certified bundle is held back.
  config.shadow_margin = -1.1;
  Loop loop(config);
  loop.emit_decisions(80, toy_plant);
  loop.controller->pump();
  loop.emit_decisions(120, drifted_plant);
  loop.controller->pump();

  const auto history = loop.controller->history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_FALSE(history.front().shadow_passed);
  EXPECT_FALSE(history.front().promoted);
  EXPECT_EQ(loop.registry->lookup("toy").version, loop.base_policy_version);
}

TEST(AdaptationControllerTest, AlarmWaitsForMinTransitions) {
  AdaptationConfig config = quick_config();
  config.min_transitions = 500;
  Loop loop(config);
  loop.emit_decisions(80, toy_plant);
  loop.controller->pump();
  loop.emit_decisions(120, drifted_plant);
  // Alarm fires but the snapshot is too small: armed, not acted on.
  EXPECT_EQ(loop.controller->pump(), 0u);
  EXPECT_TRUE(loop.controller->monitor().drifted("toy"));
  EXPECT_TRUE(loop.controller->history().empty());

  // Enough telemetry arrives: the armed alarm is finally served.
  loop.emit_decisions(400, drifted_plant);
  EXPECT_EQ(loop.controller->pump(), 1u);
  EXPECT_EQ(loop.controller->history().size(), 1u);
}

TEST(AdaptationControllerTest, EnsembleResidualsDriveDetectionAndFineTune) {
  // With a trained ensemble registered, residuals come from the ensemble
  // mean and the adaptation fine-tunes the members too.
  auto ensemble = std::make_shared<dyn::EnsembleDynamics>([] {
    dyn::EnsembleConfig config;
    config.members = 2;
    config.member_config.trainer.epochs = 40;
    return config;
  }());
  {
    Rng rng(1);
    dyn::TransitionDataset data;
    for (int i = 0; i < 1000; ++i) {
      dyn::Transition t;
      t.input = {rng.uniform(17.0, 24.0), rng.uniform(12.0, 18.0), 50.0, 3.0,
                 rng.uniform(0.0, 400.0), 11.0};
      t.action = {22.5, 26.0};
      t.next_zone_temp = toy_plant(t.input, t.action);
      data.add(t);
    }
    ensemble->train(data);
  }

  Loop loop(quick_config(), /*threads=*/2, ensemble);
  loop.emit_decisions(80, toy_plant);
  loop.controller->pump();
  loop.emit_decisions(120, drifted_plant);
  EXPECT_EQ(loop.controller->pump(), 1u);
  const auto history = loop.controller->history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_TRUE(ensemble->trained());
}

TEST(AdaptationControllerTest, BackgroundWorkerPumpsUntilStopped) {
  AdaptationConfig config = quick_config();
  config.poll_interval = std::chrono::milliseconds(5);
  Loop loop(config);
  loop.emit_decisions(60, toy_plant);

  loop.controller->start();
  EXPECT_TRUE(loop.controller->running());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (loop.controller->stats().records_drained < 60 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  loop.controller->stop();
  EXPECT_FALSE(loop.controller->running());
  EXPECT_GE(loop.controller->stats().records_drained, 60u);

  // stop() is idempotent and restart works.
  loop.controller->stop();
  loop.controller->start();
  loop.controller->stop();
}

TEST(AdaptationControllerTest, HousekeepingEvictsIdleSessions) {
  AdaptationConfig config = quick_config();
  config.evict_idle_decisions = 10;
  Loop loop(config);

  // A second session decides once, then goes idle while the main session
  // keeps the admission clock moving.
  serve::SessionConfig idle_config;
  idle_config.policy_key = "toy";
  const serve::SessionId idle = loop.sessions->open(idle_config);
  loop.sessions->begin_decision(idle, serve::RequestKind::kDtPolicy, cold_occupied());
  loop.emit_decisions(60, toy_plant);
  for (int i = 0; i < 60; ++i) {
    loop.sessions->begin_decision(loop.session, serve::RequestKind::kDtPolicy, cold_occupied());
  }

  ASSERT_TRUE(loop.sessions->contains(idle));
  loop.controller->pump();
  EXPECT_FALSE(loop.sessions->contains(idle));
  EXPECT_TRUE(loop.sessions->contains(loop.session));
  EXPECT_GE(loop.controller->stats().sessions_evicted, 1u);
}

}  // namespace
}  // namespace verihvac::adapt
