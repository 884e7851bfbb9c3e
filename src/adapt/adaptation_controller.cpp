#include "adapt/adaptation_controller.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "adapt/telemetry_store.hpp"

#include "common/logging.hpp"
#include "common/timing.hpp"
#include "control/mbrl_agent.hpp"
#include "core/decision_data.hpp"
#include "core/verification.hpp"
#include "envlib/env.hpp"
#include "obs/trace.hpp"

namespace verihvac::adapt {

namespace {

/// Trailing fraction of each snapshot held out for the shadow gate (never
/// trained on).
constexpr double kHoldoutFraction = 0.25;
/// Adaptations attempted per cluster before the controller stops trying
/// (a safety valve against retrain storms on unadaptable drift).
constexpr std::uint64_t kMaxGenerations = 4;

/// Deterministic per-(generation, stage) seed derivation — SplitMix64-style
/// mixing so successive generations' streams are unrelated.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t generation, std::uint64_t stage) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (generation * 8 + stage + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

ShadowReport shadow_evaluate(const core::DtPolicy& policy, const dyn::DynamicsModel& model,
                             const dyn::TransitionDataset& holdout,
                             const env::ComfortRange& comfort) {
  ShadowReport report;
  dyn::PredictScratch scratch;
  const std::size_t occ_dim = model.schema().occupancy_index();
  for (const dyn::Transition& transition : holdout.transitions()) {
    ++report.transitions;
    if (transition.input[occ_dim] <= 0.5) continue;
    ++report.occupied;
    const std::size_t index = policy.decide_index(transition.input);
    const sim::SetpointPair action = policy.actions().action(index);
    const double next = model.predict(transition.input, action, scratch);
    if (!comfort.contains(next)) ++report.predicted_violations;
  }
  return report;
}

AdaptationController::AdaptationController(AdaptationConfig config,
                                           std::shared_ptr<TelemetryLog> telemetry,
                                           std::shared_ptr<serve::PolicyRegistry> registry,
                                           std::shared_ptr<serve::SessionManager> sessions,
                                           serve::RequestScheduler& scheduler,
                                           std::shared_ptr<const common::TaskPool> pool)
    : config_(std::move(config)),
      telemetry_(std::move(telemetry)),
      registry_(std::move(registry)),
      sessions_(std::move(sessions)),
      scheduler_(scheduler),
      pool_(pool != nullptr ? std::move(pool) : common::TaskPool::shared()),
      engine_(pool_),
      rollout_engine_(std::make_shared<const control::RolloutEngine>(pool_)),
      monitor_(config_.drift),
      generation_seconds_(obs::histogram("adapt_generation_seconds")) {
  if (telemetry_ == nullptr || registry_ == nullptr || sessions_ == nullptr) {
    throw std::invalid_argument(
        "AdaptationController: telemetry, registry and sessions must be non-null");
  }
}

void AdaptationController::register_cluster(const std::string& key, ClusterAssets assets) {
  if (assets.model == nullptr) {
    throw std::invalid_argument("AdaptationController: cluster '" + key + "' needs a model");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Cluster cluster;
  cluster.assets = std::move(assets);
  clusters_[key] = std::move(cluster);
}

void AdaptationController::attach_store(std::shared_ptr<TelemetryStore> store) {
  std::lock_guard<std::mutex> pump_lock(pump_mutex_);
  if (store != nullptr) store->enable_fetch_queue();
  store_ = std::move(store);
}

std::vector<AdaptationController::PendingTransition> AdaptationController::pair_records(
    const std::vector<TelemetryRecord>& records) {
  // Session -> policy key, registered off the hot path at session open.
  // Registrations are append-only, so the cached map is rebuilt only when
  // the count moved — not per pump.
  if (telemetry_->session_count() != session_keys_.size()) {
    session_keys_.clear();
    for (const TelemetrySession& session : telemetry_->sessions()) {
      session_keys_[session.id] = session.policy_key;
    }
  }
  const std::map<serve::SessionId, std::string>& keys = session_keys_;

  std::vector<PendingTransition> out;
  std::size_t non_finite = 0;
  for (const TelemetryRecord& record : records) {
    // Pair with the session's previous decision: its observation is this
    // record's predecessor state, this record's observation the outcome.
    const auto pending_it = pending_records_.find(record.session);
    if (pending_it != pending_records_.end() &&
        pending_it->second.decision_index + 1 == record.decision_index) {
      const TelemetryRecord& prev = pending_it->second;
      PendingTransition item;
      const auto key_it = keys.find(record.session);
      item.key = key_it != keys.end() ? key_it->second : std::string("(unknown)");
      item.transition.input = prev.obs_vector();
      item.transition.action.heating_c = prev.heating_c;
      item.transition.action.cooling_c = prev.cooling_c;
      item.transition.next_zone_temp = record.obs[record.zone_temp_dim];
      // A non-finite value would turn the drift statistics NaN for good
      // and make every later fine-tune on `pending` throw: drop it here.
      if (!dyn::is_finite(item.transition)) {
        ++non_finite;
      } else {
        const auto cluster_it = clusters_.find(item.key);
        if (cluster_it != clusters_.end()) item.model = cluster_it->second.assets.model;
        out.push_back(std::move(item));
      }
    }
    pending_records_[record.session] = record;
  }
  if (non_finite > 0) {
    log_warn("adapt: dropped ", non_finite, " transition(s) with a non-finite value");
  }
  return out;
}

std::size_t AdaptationController::pump() {
  std::lock_guard<std::mutex> pump_lock(pump_mutex_);

  drain_buffer_.clear();
  // With a durable store attached the store is the single log consumer:
  // fetch() persists the batch to segments and hands the same records to
  // this pump. The store degrades internally on disk errors, but this
  // pump often runs on a serving-side thread (a harness step hook, a
  // pumping thread) — adaptation failures must never take serving down,
  // so a failing store falls back to draining the log directly.
  std::uint64_t lost = 0;
  if (store_ != nullptr) {
    try {
      lost = store_->fetch(drain_buffer_);
    } catch (const std::exception& error) {
      log_warn("adapt: telemetry store fetch failed (", error.what(),
               "); draining the log directly this pump");
      drain_buffer_.clear();
      lost = telemetry_->drain(drain_buffer_);
    }
  } else {
    lost = telemetry_->drain(drain_buffer_);
  }

  std::vector<PendingTransition> fresh;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_drained_.add(drain_buffer_.size());
    records_lost_.add(lost);
    if (!drain_buffer_.empty()) fresh = pair_records(drain_buffer_);
  }

  // Residual scoring — per-transition model forwards — runs outside
  // mutex_ so stats()/history() readers never wait on inference; the
  // monitor carries its own lock. Unregistered clusters' transitions are
  // counted but never scored or adapted.
  struct Alarm {
    std::string key;
    DriftEvent event;
  };
  std::vector<Alarm> alarms;
  dyn::PredictScratch scratch;
  // The scoring pass that fires an alarm is the first span of the
  // adaptation generation's trace: emitted retroactively (start pinned at
  // loop entry) only when an alarm actually fires.
  obs::TraceCollector& trace = obs::TraceCollector::global();
  const std::uint64_t scan_start_ns = trace.enabled() && !fresh.empty() ? trace.now_ns() : 0;
  for (const PendingTransition& item : fresh) {
    if (item.model == nullptr) continue;
    const double predicted =
        item.model->predict(item.transition.input, item.transition.action, scratch);
    const double residual = std::abs(predicted - item.transition.next_zone_temp);
    if (auto event = monitor_.observe(item.key, residual)) {
      log_info("adapt[", item.key, "]: drift detected after ", event->samples,
               " samples (mean residual ", event->mean_residual, ")");
      alarms.push_back({item.key, std::move(*event)});
    }
  }
  if (!alarms.empty() && trace.enabled()) {
    const std::uint64_t end_ns = trace.now_ns();
    trace.emit("adapt.drift_alarm", "adapt", scan_start_ns,
               end_ns > scan_start_ns ? end_ns - scan_start_ns : 1);
  }

  struct Work {
    std::string key;
    ClusterAssets assets;
    dyn::TransitionDataset snapshot;
    std::uint64_t generation = 0;
    DriftEvent trigger;
  };
  std::vector<Work> work;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    transitions_.add(fresh.size());
    drift_events_.add(alarms.size());
    for (PendingTransition& item : fresh) {
      const auto cluster_it = clusters_.find(item.key);
      if (cluster_it != clusters_.end()) {
        cluster_it->second.pending.add(std::move(item.transition));
      }
    }
    for (Alarm& alarm : alarms) {
      const auto cluster_it = clusters_.find(alarm.key);
      if (cluster_it != clusters_.end()) {
        cluster_it->second.drift_armed = true;
        cluster_it->second.trigger = std::move(alarm.event);
      }
    }

    for (auto& [key, cluster] : clusters_) {
      if (!cluster.drift_armed) continue;
      if (cluster.pending.size() < std::max(config_.min_transitions, cluster.retry_floor)) {
        continue;
      }
      if (cluster.generation >= kMaxGenerations) continue;
      Work item;
      item.key = key;
      item.assets = cluster.assets;
      item.snapshot = cluster.pending;
      item.generation = cluster.generation;
      item.trigger = cluster.trigger;
      work.push_back(std::move(item));
      cluster.drift_armed = false;  // consumed; re-armed below on failure
      ++cluster.generation;
    }
  }

  // Heavy lifting outside mutex_: fine-tune, distill, certify, shadow.
  for (Work& item : work) {
    AdaptOutcome outcome =
        adapt_cluster(item.key, item.assets, item.snapshot, item.generation, item.trigger);
    std::lock_guard<std::mutex> lock(mutex_);
    attempts_.add(1);
    auto cluster_it = clusters_.find(item.key);
    if (outcome.report.promoted) {
      promotions_.add(1);
      if (cluster_it != clusters_.end()) {
        // The fine-tuned model is the new residual baseline; telemetry
        // accumulated against the stale model is discarded and the
        // Page-Hinkley statistics restart clean.
        cluster_it->second.assets.model = outcome.model;
        cluster_it->second.pending = dyn::TransitionDataset();
        cluster_it->second.retry_floor = 0;
      }
      monitor_.reset(item.key);
    } else if (cluster_it != clusters_.end() &&
               cluster_it->second.generation < kMaxGenerations) {
      // The alarm stays latched in the monitor, so no new event will ever
      // arrive for this cluster: re-arm explicitly and require materially
      // fresh telemetry before the retry (no tight retrain storms).
      cluster_it->second.drift_armed = true;
      cluster_it->second.retry_floor = item.snapshot.size() + config_.min_transitions;
    }
    history_.push_back(std::move(outcome.report));
  }

  // Drop the pairing state of sessions that no longer exist (close/evict
  // would otherwise leak one trailing record per session forever).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pending_records_.begin(); it != pending_records_.end();) {
      it = sessions_->contains(it->first) ? std::next(it) : pending_records_.erase(it);
    }
  }
  return work.size();
}

AdaptationController::AdaptOutcome AdaptationController::adapt_cluster(
    const std::string& key, const ClusterAssets& assets, const dyn::TransitionDataset& snapshot,
    std::uint64_t generation, const DriftEvent& trigger) {
  const auto t0 = std::chrono::steady_clock::now();
  const obs::TraceSpan generation_span("adapt.generation", "adapt");
  AdaptOutcome outcome;
  AdaptationReport& report = outcome.report;
  report.cluster = key;
  report.generation = generation;
  report.trigger = trigger;

  try {
    // 1. Snapshot split: trailing holdout is never trained on.
    const std::size_t holdout_n = std::min(
        snapshot.size() - 1,
        std::max<std::size_t>(1, static_cast<std::size_t>(kHoldoutFraction *
                                                          static_cast<double>(snapshot.size()))));
    const std::size_t train_n = snapshot.size() - holdout_n;
    dyn::TransitionDataset train;
    dyn::TransitionDataset holdout;
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      (i < train_n ? train : holdout).add(snapshot.at(i));
    }
    report.train_transitions = train.size();
    report.holdout_transitions = holdout.size();

    // 2. Fine-tune a clone — the incumbent model keeps serving untouched.
    auto candidate_model = std::make_shared<dyn::DynamicsModel>(*assets.model);
    {
      const obs::TraceSpan span("adapt.fine_tune", "adapt");
      report.fine_tune_val_loss =
          candidate_model->fine_tune(train, config_.fine_tune_epochs, generation).final_val_loss;
    }

    // 3. Re-distill: VIPER against the fine-tuned teacher.
    std::shared_ptr<core::DtPolicy> candidate;
    {
      const obs::TraceSpan span("adapt.redistill", "adapt");
      control::RandomShootingConfig teacher_rs = config_.teacher_rs;
      teacher_rs.refine_first_action = true;
      control::MbrlAgent teacher(*candidate_model, teacher_rs,
                                 control::ActionSpace(config_.action_space), config_.reward,
                                 derive_seed(config_.seed, generation, 1));
      teacher.set_engine(rollout_engine_);
      core::ViperConfig viper = config_.viper;
      viper.seed = derive_seed(config_.seed, generation, 2);
      env::BuildingEnv viper_env(assets.env);
      core::ViperResult distilled = core::viper_extract(teacher, viper_env, viper);
      if (distilled.policy == nullptr) {
        throw std::runtime_error("VIPER produced no policy");
      }
      candidate = std::make_shared<core::DtPolicy>(*distilled.policy);
    }

    // 4. Certify: Algorithm 1 with correction, clean formal re-check, then
    // criterion #1 Monte-Carlo over the snapshot's input distribution.
    obs::TraceSpan recertify_span("adapt.recertify", "adapt");
    core::verify_formal(*candidate, config_.criteria, /*correct=*/true);
    report.formal = core::verify_formal(*candidate, config_.criteria, /*correct=*/false);
    // Certification distribution: fresh telemetry plus the cluster's
    // baseline history, so criterion #1 always sees the full operating
    // envelope (telemetry alone may cover only one slice of the day).
    dyn::TransitionDataset certification_data = train;
    certification_data.append(assets.baseline);
    const core::AugmentedSampler sampler(certification_data.policy_inputs(),
                                         config_.noise_level, candidate_model->schema());
    report.probabilistic = engine_.verify_probabilistic(
        *candidate, *candidate_model, sampler, config_.criteria, config_.probabilistic_samples,
        derive_seed(config_.seed, generation, 3));
    // Sound interval certification of the candidate, every cell computed
    // from scratch: the fine-tune above moved the model's weights, and a
    // dense MLP gives no sound way to reuse an image from the previous
    // model for any cell (see core::RecertStats).
    report.interval = engine_.verify_interval(*candidate, *candidate_model, config_.criteria,
                                              config_.interval_bounds, config_.interval);
    for (const core::IntervalLeafResult& r : report.interval.results) {
      report.recert.cells_total += r.cells;
      report.recert.cells_computed += r.cells;
    }
    report.certified = report.formal.all_pass() &&
                       report.probabilistic.passes(config_.criteria) &&
                       report.interval.certified_fraction() >= config_.min_certified_fraction;
    recertify_span.finish();

    // 5. Shadow gate on held-out telemetry, both bundles scored through
    // the candidate model (the best available picture of the drifted
    // plant).
    {
      const obs::TraceSpan span("adapt.shadow_gate", "adapt");
      const serve::PolicySnapshot incumbent = registry_->try_lookup(key);
      report.shadow_candidate =
          shadow_evaluate(*candidate, *candidate_model, holdout, config_.criteria.comfort);
      if (incumbent.policy != nullptr) {
        report.shadow_incumbent =
            shadow_evaluate(*incumbent.policy, *candidate_model, holdout,
                            config_.criteria.comfort);
        report.shadow_passed = report.shadow_candidate.violation_rate() <=
                               report.shadow_incumbent.violation_rate() + config_.shadow_margin;
      } else {
        report.shadow_passed = true;
      }
    }

    // 6. Promote only a certified, shadow-passed bundle. Registry install
    // is a hot swap: in-flight decisions finish on their snapshots.
    if (report.certified && report.shadow_passed) {
      const obs::TraceSpan span("adapt.hot_swap", "adapt");
      report.promoted_policy_version = registry_->install(key, candidate);
      report.promoted_model_generation = scheduler_.install_model(key, candidate_model);
      report.promoted = true;
      outcome.model = candidate_model;
      log_info("adapt[", key, "]: promoted generation ", generation, " as bundle v",
               report.promoted_policy_version, " (safe prob ",
               report.probabilistic.safe_probability, ", interval cert ",
               report.interval.certified_fraction(), ", recert cells ",
               report.recert.cells_computed, "/", report.recert.cells_total, " computed)");
    } else {
      log_info("adapt[", key, "]: generation ", generation, " NOT promoted (certified=",
               report.certified, ", shadow=", report.shadow_passed, ", interval cert ",
               report.interval.certified_fraction(), ", recert cells ",
               report.recert.cells_computed, "/", report.recert.cells_total, " computed)");
    }
  } catch (const std::exception& error) {
    // An adaptation failure must never take serving down: the incumbent
    // bundle stays, the report records the attempt.
    report.certified = false;
    report.promoted = false;
    log_warn("adapt[", key, "]: adaptation failed: ", error.what());
  }

  report.seconds = seconds_since(t0);
  generation_seconds_.observe(report.seconds);
  return outcome;
}

AdaptationController::Stats AdaptationController::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.records_drained = records_drained_.value();
  stats.records_lost = records_lost_.value();
  stats.transitions = transitions_.value();
  stats.drift_events = drift_events_.value();
  stats.adaptations_attempted = attempts_.value();
  stats.adaptations_promoted = promotions_.value();
  return stats;
}

std::vector<AdaptationReport> AdaptationController::history() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return history_;
}

}  // namespace verihvac::adapt
