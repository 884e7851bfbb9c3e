// Closed-loop adaptation: drift in telemetry -> retrain -> certify ->
// shadow gate -> hot-swap, with the certified-promotion guarantee and
// seeded determinism locked by tests.
#include "adapt/adaptation_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/telemetry_store.hpp"
#include "envlib/baseline_layout.hpp"
#include "serve/serve_test_utils.hpp"

namespace verihvac::adapt {
namespace {

using env::FeatureRole;
using env::testing::dim;
using env::testing::flatten;
using serve::testing::cold_occupied;
using serve::testing::pool_with_threads;
using serve::testing::toy_plant;
using serve::testing::toy_policy;

/// The building after equipment wear: heating delivers 30% less than the
/// historical plant the model was trained on (drifted equilibrium ~19.2 C
/// at 15 C outdoors vs ~21.2 C healthy — detectable, still certifiable
/// inside the test's wide comfort band).
double drifted_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const double t = x[dim(FeatureRole::kZoneTemp)];
  double dt = 0.08 * (x[dim(FeatureRole::kOutdoorTemp)] - t);
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

  explicit Loop(const AdaptationConfig& config, std::size_t threads = 2) {
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
    for (std::size_t i = 0; i < n; ++i) {
      zone_temp = plant(flatten(emit(zone_temp)), kAction);
    }
  }

  /// Emits one decision whose zone-temperature reading is NaN (a failed
  /// sensor); the plant carries on from its last real temperature.
  void emit_sensor_dropout() { emit(std::numeric_limits<double>::quiet_NaN()); }

 private:
  static constexpr sim::SetpointPair kAction{22.5, 26.0};

  env::Observation emit(double observed_zone_temp) {
    env::Observation obs = cold_occupied(observed_zone_temp);
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
    event.action = kAction;
    event.observation = &obs;
    log->on_decision(event);
    return obs;
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
                               "adapt_attempts_total",        "adapt_promotions_total"};
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
                                    stats.adaptations_attempted, stats.adaptations_promoted};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(obs::counter(names[i]).value() - before[i], expected[i]) << names[i];
  }
}

// With a store attached, the controller's pump is the store's only drain:
// every record the pumps handed to adaptation is persisted, in order, and
// nothing else is. A twin loop, emitting the same decisions into a log
// drained directly, gives the stream the pumps drained.
TEST(AdaptationControllerTest, AttachedStorePersistsWhatThePumpsDrained) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "verihvac_controller_store_test";
  std::filesystem::remove_all(dir);
  Loop twin(quick_config());
  std::vector<TelemetryRecord> expected;
  for (std::size_t pump = 0; pump < 4; ++pump) {
    twin.emit_decisions(30, toy_plant);
    EXPECT_EQ(twin.log->drain(expected), 0u);
  }
  ASSERT_EQ(expected.size(), 120u);

  // Segments rotate within and across pumps: the byte budget is the
  // payload of a probe segment holding the session table and 16 records
  // (every record here has the same size).
  std::filesystem::create_directories(dir);
  const std::string probe = (dir / "probe.bin").string();
  write_segment({twin.log->sessions(), {expected.begin(), expected.begin() + 16}}, probe);
  TelemetryStoreConfig config;
  config.directory = dir.string();
  config.segment_max_bytes = read_segment_header(probe).payload_bytes;
  std::filesystem::remove(probe);

  Loop loop(quick_config());
  const auto store = std::make_shared<TelemetryStore>(loop.log, config);
  loop.controller->attach_store(store);
  for (std::size_t pump = 0; pump < 4; ++pump) {
    loop.emit_decisions(30, toy_plant);
    EXPECT_EQ(loop.controller->pump(), 0u);
  }
  store->stop();
  EXPECT_EQ(store->stats().rotations, 8u);  // 7 full segments + the 8-record tail

  const AdaptationController::Stats stats = loop.controller->stats();
  const TelemetryLog::Stats capture = loop.log->stats();
  EXPECT_EQ(stats.records_drained, expected.size());
  EXPECT_EQ(stats.records_drained, store->stats().records_persisted);
  EXPECT_EQ(stats.records_drained, capture.recorded - capture.lost);
  // One session, consecutive decisions: the controller paired every
  // record with its predecessor, so it saw the whole stream in order.
  EXPECT_EQ(stats.transitions, expected.size() - 1);

  const TelemetryTrace loaded = load_directory(dir.string());
  ASSERT_EQ(loaded.records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    std::string persisted, drained;
    detail::append_record(persisted, loaded.records[i]);
    detail::append_record(drained, expected[i]);
    EXPECT_EQ(persisted, drained) << "record " << i;
  }
  std::filesystem::remove_all(dir);
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

// One NaN zone reading (the DT path serves non-finite observations and
// telemetry records them) must neither poison the drift statistics nor
// reach the fine-tune set: both transitions that touch it are dropped.
TEST(AdaptationControllerTest, NonFiniteObservationDoesNotBlindDriftDetection) {
  Loop loop(quick_config());
  loop.emit_decisions(80, toy_plant);
  loop.emit_sensor_dropout();
  ASSERT_EQ(loop.controller->pump(), 0u);
  const DriftStats healthy = loop.controller->monitor().stats("toy");
  EXPECT_EQ(healthy.samples, 79u);
  EXPECT_TRUE(std::isfinite(healthy.mean));
  EXPECT_TRUE(std::isfinite(healthy.ph_statistic));

  loop.emit_decisions(120, drifted_plant);
  ASSERT_EQ(loop.controller->pump(), 1u);
  const auto history = loop.controller->history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_TRUE(history.front().promoted);
  EXPECT_EQ(loop.registry->lookup("toy").version, history.front().promoted_policy_version);
  // 201 decisions pair into 200 transitions, 2 of which touch the NaN.
  EXPECT_EQ(loop.controller->stats().transitions, 198u);
}

/// Runs the drift scenario with `pumpers` threads each calling pump()
/// `rounds` times per phase, while one more thread polls stats() and
/// history() until the pumping ends.
AdaptationController::Stats concurrent_drift_run(Loop& loop, std::size_t pumpers,
                                                 std::size_t rounds) {
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last_drained = 0;
    std::size_t last_history = 0;
    while (!done.load()) {
      const std::uint64_t drained = loop.controller->stats().records_drained;
      const std::size_t history = loop.controller->history().size();
      EXPECT_GE(drained, last_drained);
      EXPECT_GE(history, last_history);
      last_drained = drained;
      last_history = history;
      std::this_thread::yield();
    }
  });
  const auto pump_phase = [&] {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < pumpers; ++t) {
      threads.emplace_back([&] {
        for (std::size_t r = 0; r < rounds; ++r) loop.controller->pump();
      });
    }
    for (std::thread& thread : threads) thread.join();
  };
  loop.emit_decisions(80, toy_plant);
  pump_phase();
  loop.emit_decisions(120, drifted_plant);
  pump_phase();
  done.store(true);
  reader.join();
  return loop.controller->stats();
}

// Callers may pump one controller from several threads while others read
// its stats and history: the pumps serialize, so the totals equal a
// one-thread run over the same telemetry.
TEST(AdaptationControllerTest, ConcurrentPumpsAndReadersMatchOneThread) {
  Loop serial(quick_config());
  const AdaptationController::Stats expected = concurrent_drift_run(serial, 1, 1);
  ASSERT_EQ(expected.adaptations_attempted, 1u);
  ASSERT_EQ(expected.adaptations_promoted, 1u);

  Loop loop(quick_config());
  const AdaptationController::Stats stats = concurrent_drift_run(loop, 2, 4);
  EXPECT_EQ(stats.records_drained, expected.records_drained);
  EXPECT_EQ(stats.records_lost, expected.records_lost);
  EXPECT_EQ(stats.transitions, expected.transitions);
  EXPECT_EQ(stats.drift_events, expected.drift_events);
  EXPECT_EQ(stats.adaptations_attempted, expected.adaptations_attempted);
  EXPECT_EQ(stats.adaptations_promoted, expected.adaptations_promoted);
  ASSERT_EQ(loop.controller->history().size(), 1u);
  EXPECT_EQ(loop.registry->lookup("toy").policy->to_text(),
            serial.registry->lookup("toy").policy->to_text());
}

}  // namespace
}  // namespace verihvac::adapt
