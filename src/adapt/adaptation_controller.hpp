// Verified retrain -> certify -> hot-swap adaptation loop.
//
// Closes the loop PR 4 left open: the serving stack can hot-swap bundles,
// but nothing produced a new one. The controller watches telemetry, and
// when a building cluster's dynamics drift it manufactures a *certified*
// replacement and promotes it — never anything uncertified:
//
//   pump():  drain TelemetryLog -> pair records into transitions (drop
//            any with a non-finite value) -> one-step residuals against
//            the cluster's serving model -> DriftMonitor (Welford +
//            Page-Hinkley)
//   drift fired (and enough fresh transitions):
//     1. snapshot telemetry into a dataset; split train / held-out tail
//     2. fine-tune a *clone* of the serving dyn::DynamicsModel on the
//        train split — frozen normalizers, warm-started weights,
//        generation-salted seeds
//     3. re-distill: VIPER against the fine-tuned teacher (the MBRL agent
//        over the candidate model) in the cluster's environment
//     4. re-certify: Algorithm 1 formal check with correction, a clean
//        formal re-check, criterion #1 Monte-Carlo, and sound interval
//        certification through the parallel core::VerificationEngine
//        (the controller's TaskPool)
//     5. shadow-evaluate: candidate vs incumbent bundle on the held-out
//        telemetry, both scored through the candidate model — the
//        candidate must not predict more comfort violations
//     6. promote iff certified AND shadow-passed: PolicyRegistry::install
//        (in-flight decisions finish on their snapshots — zero drops) +
//        RequestScheduler::install_model, then reset the cluster's drift
//        baseline
//
// Determinism: every stochastic step draws from seeds derived from
// (config.seed, cluster generation) — two controllers fed the same
// telemetry produce bit-identical candidate bundles for any
// VERI_HVAC_THREADS (the engines' invariants), which the tests lock.
//
// Threading: the caller drives the loop by calling pump() — from a fleet
// harness's per-step hook or from a thread of its own. pump() is
// serialized internally, so several threads may pump one controller while
// others read stats()/history(). The heavy lifting inside an adaptation —
// VIPER's batched rollouts, Monte-Carlo and interval verification — fans
// out over the controller's one pool (the constructor's `pool`, by default
// the shared common::TaskPool).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "adapt/drift_monitor.hpp"
#include "adapt/telemetry.hpp"
#include "control/rollout_engine.hpp"
#include "core/verification_engine.hpp"
#include "core/viper.hpp"
#include "dynamics/dynamics_model.hpp"
#include "obs/instruments.hpp"
#include "serve/request_scheduler.hpp"

namespace verihvac::adapt {

class TelemetryStore;

struct AdaptationConfig {
  DriftMonitorConfig drift;
  /// Fresh telemetry transitions a cluster needs before a fired alarm is
  /// acted on (fine-tuning on a handful of points would overfit).
  std::size_t min_transitions = 64;
  std::size_t fine_tune_epochs = 30;
  /// Candidate may predict at most this much more violation than the
  /// incumbent on held-out telemetry (0 = must be no worse).
  double shadow_margin = 0.0;
  core::VerificationCriteria criteria;
  std::size_t probabilistic_samples = 500;
  /// Eq. 5 noise level for the certification sampler over the snapshot.
  double noise_level = 0.01;
  /// Interval (sound) certification of every candidate, §3.3.2 extension.
  core::IntervalVerifyConfig interval;
  /// Climate envelope the interval certificates are issued for.
  core::DisturbanceBounds interval_bounds;
  /// Promotion gate on IntervalReport::certified_fraction(). 0 = record
  /// only: the report and cell accounting land in the history/logs but
  /// never block (IBP abstention on wide toy boxes must not veto bundles
  /// that pass the paper's criteria).
  double min_certified_fraction = 0.0;
  core::ViperConfig viper;
  /// Teacher optimizer for re-distillation (refine_first_action is forced
  /// on, matching the pipeline's sharpened supervision).
  control::RandomShootingConfig teacher_rs{128, 5, 0.99};
  control::ActionSpaceConfig action_space;
  env::RewardConfig reward;
  std::uint64_t seed = 2027;
};

/// Per-cluster serving assets the controller adapts. The model is the one
/// installed in the scheduler, and drift residuals are scored against it;
/// the env config drives VIPER's student rollouts; the baseline dataset
/// (the pipeline's historical collection, optional) widens the
/// certification sampler beyond whatever operating slice the fresh
/// telemetry happens to cover — a drift detected overnight must still
/// certify against occupied daytime states.
struct ClusterAssets {
  std::shared_ptr<const dyn::DynamicsModel> model;
  env::EnvConfig env;
  dyn::TransitionDataset baseline;
};

/// Predicted comfort outcome of a bundle on held-out telemetry.
struct ShadowReport {
  std::size_t transitions = 0;
  std::size_t occupied = 0;
  std::size_t predicted_violations = 0;

  double violation_rate() const {
    return occupied == 0
               ? 0.0
               : static_cast<double>(predicted_violations) / static_cast<double>(occupied);
  }
};

/// Everything one adaptation attempt did, promoted or not.
struct AdaptationReport {
  std::string cluster;
  std::uint64_t generation = 0;
  DriftEvent trigger;
  std::size_t train_transitions = 0;
  std::size_t holdout_transitions = 0;
  double fine_tune_val_loss = 0.0;
  core::FormalReport formal;          ///< clean re-check after correction
  core::ProbabilisticReport probabilistic;
  core::IntervalReport interval;  ///< sound one-step certification
  core::RecertStats recert;       ///< cell accounting for `interval`
  bool certified = false;
  ShadowReport shadow_candidate;
  ShadowReport shadow_incumbent;
  bool shadow_passed = false;
  bool promoted = false;
  std::uint64_t promoted_policy_version = 0;
  std::uint64_t promoted_model_generation = 0;
  double seconds = 0.0;
};

/// Scores `policy` on `holdout` through `model`: for each held-out
/// occupied state, apply the policy's action, advance one step through the
/// model, flag a predicted comfort violation. Exposed for tests.
ShadowReport shadow_evaluate(const core::DtPolicy& policy, const dyn::DynamicsModel& model,
                             const dyn::TransitionDataset& holdout,
                             const env::ComfortRange& comfort);

class AdaptationController {
 public:
  /// The scheduler reference must outlive the controller (the fleet
  /// harness and benches own both). `pool` runs both re-distillation and
  /// certification; it defaults to the shared VERI_HVAC_THREADS pool.
  AdaptationController(AdaptationConfig config, std::shared_ptr<TelemetryLog> telemetry,
                       std::shared_ptr<serve::PolicyRegistry> registry,
                       std::shared_ptr<serve::SessionManager> sessions,
                       serve::RequestScheduler& scheduler,
                       std::shared_ptr<const common::TaskPool> pool = nullptr);

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  const AdaptationConfig& config() const { return config_; }
  const DriftMonitor& monitor() const { return monitor_; }

  /// Registers a cluster (policy key) for adaptation. Unregistered keys'
  /// telemetry is monitored but never adapted.
  void register_cluster(const std::string& key, ClusterAssets assets);

  /// Durable-telemetry seam: once attached, pump() drains through
  /// TelemetryStore::fetch() — every record lands in the on-disk segments
  /// AND feeds adaptation, one consumer for the shared tap. The store
  /// must wrap the same TelemetryLog this controller was constructed with.
  void attach_store(std::shared_ptr<TelemetryStore> store);

  /// One observe/decide/adapt cycle (see file comment). Serialized
  /// internally, so pumps from several threads can coexist. Returns the
  /// number of adaptations attempted this cycle.
  std::size_t pump();

  /// Exact per-controller counters (a consistent snapshot under mutex_).
  /// Each field is an obs::InstanceCounter whose adds also land —
  /// process-cumulatively — in the `adapt_*_total` instruments. Each
  /// generation's wall time feeds `adapt_generation_seconds`; the stage
  /// breakdown lands in trace spans
  /// (adapt.generation > fine_tune/redistill/recertify/shadow_gate/hot_swap).
  struct Stats {
    std::uint64_t records_drained = 0;
    std::uint64_t records_lost = 0;
    std::uint64_t transitions = 0;
    std::uint64_t drift_events = 0;
    std::uint64_t adaptations_attempted = 0;
    std::uint64_t adaptations_promoted = 0;
  };
  Stats stats() const;

  /// Reports of every adaptation attempted so far (copy).
  std::vector<AdaptationReport> history() const;

 private:
  struct Cluster {
    ClusterAssets assets;
    dyn::TransitionDataset pending;  ///< transitions since last promotion
    std::uint64_t generation = 0;
    bool drift_armed = false;  ///< alarm seen, waiting for min_transitions
    /// After a failed attempt the alarm re-arms, but the next attempt
    /// waits until pending grows past this floor — retries happen on
    /// materially fresh telemetry, not in a tight retrain storm.
    std::size_t retry_floor = 0;
    DriftEvent trigger;
  };

  /// What one adaptation attempt hands back to the pump for commit.
  struct AdaptOutcome {
    AdaptationReport report;
    /// Non-null iff promoted: the fine-tuned model now serving the key.
    std::shared_ptr<const dyn::DynamicsModel> model;
  };

  /// One paired transition plus the handles needed to score its residual
  /// outside the state lock.
  struct PendingTransition {
    std::string key;
    dyn::Transition transition;
    std::shared_ptr<const dyn::DynamicsModel> model;  ///< null if unregistered
  };

  /// Pairs drained records into transitions and snapshots per-cluster
  /// scoring handles. Caller holds mutex_.
  std::vector<PendingTransition> pair_records(const std::vector<TelemetryRecord>& records);
  AdaptOutcome adapt_cluster(const std::string& key, const ClusterAssets& assets,
                             const dyn::TransitionDataset& snapshot, std::uint64_t generation,
                             const DriftEvent& trigger);

  AdaptationConfig config_;
  std::shared_ptr<TelemetryLog> telemetry_;
  /// Optional durable store (attach_store); guarded by pump_mutex_.
  std::shared_ptr<TelemetryStore> store_;
  std::shared_ptr<serve::PolicyRegistry> registry_;
  std::shared_ptr<serve::SessionManager> sessions_;
  serve::RequestScheduler& scheduler_;
  std::shared_ptr<const common::TaskPool> pool_;
  core::VerificationEngine engine_;
  /// The re-distillation teacher's rollout engine, over pool_.
  std::shared_ptr<const control::RolloutEngine> rollout_engine_;
  DriftMonitor monitor_;

  /// Serializes whole pump cycles (callers may pump from several
  /// threads); heavy adaptation work runs under this lock alone so
  /// stats()/history() stay responsive.
  std::mutex pump_mutex_;
  mutable std::mutex mutex_;  ///< guards clusters_, pending_records_, history_
  std::map<std::string, Cluster> clusters_;
  /// Last record per session, awaiting its successor for transition pairing.
  std::map<serve::SessionId, TelemetryRecord> pending_records_;
  /// Session -> policy key cache (telemetry registrations are append-only;
  /// refreshed only when the registration count changes).
  std::map<serve::SessionId, std::string> session_keys_;
  std::vector<TelemetryRecord> drain_buffer_;
  std::vector<AdaptationReport> history_;
  /// Stats counts (added under mutex_), each also feeding its `adapt_*`
  /// global instrument.
  obs::InstanceCounter records_drained_{"adapt_records_drained_total"};
  obs::InstanceCounter records_lost_{"adapt_records_lost_total"};
  obs::InstanceCounter transitions_{"adapt_transitions_total"};
  obs::InstanceCounter drift_events_{"adapt_drift_events_total"};
  obs::InstanceCounter attempts_{"adapt_attempts_total"};
  obs::InstanceCounter promotions_{"adapt_promotions_total"};
  obs::Histogram& generation_seconds_;
};

}  // namespace verihvac::adapt
