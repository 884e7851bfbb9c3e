// Fleet telemetry capture — the observation end of the adaptation loop.
//
// TelemetryLog is a serve::DecisionTap: every decision the scheduler
// answers lands as one fixed-size record in a per-shard lock-free ring.
// The write path is the whole point — it sits on the DT fast path, whose
// overhead budget is single-digit percent of a sub-microsecond decision:
//
//   * claim: one relaxed fetch_add on the shard's ticket counter
//     (wait-free; producers never loop, never block, never allocate);
//   * publish: per-slot seqlock — the slot's sequence goes odd (writing),
//     the POD payload is copied, and the sequence goes even at the
//     claiming ticket's lap (release);
//   * slots are *compact* (~2 cache lines): MBRL forecasts go to a
//     separate, much smaller side ring referenced by ticket, so the
//     common DT record write stays cache-resident instead of streaming a
//     ~1 KB slot through DRAM;
//   * optionally, DT decisions are sampled deterministically
//     (TelemetryConfig::dt_sample_period) in runs of two consecutive
//     decision indices — transition pairing still works, the fast-path
//     duty cycle drops by ~period/2, and which decisions are recorded is
//     a pure function of the decision index (thread- and replay-stable).
//
// When producers outrun the (single) consumer the ring *laps*: the oldest
// unread records are overwritten and counted as lost — load shedding on
// the observation path, never back-pressure on serving. drain() detects
// both forms (lap skips and torn slots via the seqlock re-check) and
// reports them, so capture completeness is an observable property: the
// replay/dataset tests size the ring to the workload and assert zero
// loss. One pathological interleaving — a producer stalled *mid-write*
// for an entire ring lap while another producer claims the same slot —
// can in principle defeat the per-slot sequence re-check; drain therefore
// also sanity-checks the copied record's fixed-range fields and counts
// implausible ones as lost, so a torn record can never corrupt a dataset
// build or index out of the forecast arrays. Size rings so a lap takes
// far longer than any producer's ~100 ns write and the window is moot.
//
// Records are self-describing for replay: they carry the decision's RNG
// stream coordinates (session seed + decision index — the Rng::stream
// keystone), the observation flattened by the deciding artifact's schema
// (with its length and zone-temperature column), the served action, the
// bundle version or model generation that decided, and (for MBRL) the
// disturbance forecast the optimizer planned against. A trace (records +
// session table) therefore supports both offline uses:
//
//   * trace_to_dataset(): pair session-consecutive records — decision
//     d+1's observation is decision d's next state — into a
//     dyn::TransitionDataset ready for fine-tuning;
//   * replay_trace(): recompute every decision from its record alone and
//     compare bit-for-bit with what was served (DT: one tree walk; MBRL:
//     RandomShooting::optimize on Rng::stream(seed, d), which the
//     scheduler's micro-batched path is test-locked against). It also
//     folds the replayed actions into the replay fingerprint a sealed
//     segment header stores; `trace verify` certifies segments with this
//     same loop.
//
// Records persist in one on-disk format: the durable store's CRC-framed
// segments (telemetry_store.hpp), whose record bodies carry the
// versioned wire layout below (kTelemetryTraceVersion).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "control/random_shooting.hpp"
#include "core/dt_policy.hpp"
#include "dynamics/dataset.hpp"
#include "envlib/observation.hpp"
#include "obs/instruments.hpp"
#include "serve/decision_tap.hpp"

namespace verihvac::adapt {

/// Forecast steps stored inline per record — sized for the paper's
/// planning horizon (20); longer forecasts are truncated and flagged
/// (such records cannot be replayed, only counted).
inline constexpr std::size_t kTelemetryMaxForecast = 20;

/// Observation dims stored inline per record — sized with headroom over
/// the largest schema preset (time-aware: 9) so a future schema does not
/// force another trace-format bump. Records carry their actual length.
inline constexpr std::size_t kTelemetryMaxObsDims = 12;

/// Forecast entries are stored as env::Disturbance itself: the seqlock
/// ring copies it raw and the wire format writes its eight doubles as one
/// 64-byte block (baseline records store the temporal-field defaults).
static_assert(sizeof(env::Disturbance) == 8 * sizeof(double),
              "a forecast entry is eight doubles on the wire");
static_assert(std::is_trivially_copyable_v<env::Disturbance> &&
                  std::is_standard_layout_v<env::Disturbance>,
              "forecast entries are copied and persisted as raw bytes");

/// One served decision. Trivially copyable by construction: the seqlock
/// ring publishes records with raw copies, and the segment wire format
/// writes them field by field.
struct TelemetryRecord {
  serve::SessionId session = 0;
  std::uint64_t decision_index = 0;  ///< RNG stream id (fixed at admission)
  std::uint64_t session_seed = 0;
  /// DT: bundle registry version; MBRL: scheduler model generation.
  std::uint64_t policy_version = 0;
  std::uint8_t kind = 0;  ///< serve::RequestKind
  std::uint8_t forecast_truncated = 0;
  std::uint16_t forecast_len = 0;
  std::uint32_t action_index = 0;
  /// Number of observation dims actually used (the deciding artifact's
  /// schema dimension); the tail of `obs` is zero.
  std::uint16_t obs_len = 0;
  /// Which obs column is the zone temperature (the schema's state role) —
  /// transition pairing reads next states by this, not by index 0.
  std::uint16_t zone_temp_dim = 0;
  double latency_seconds = 0.0;
  double obs[kTelemetryMaxObsDims] = {};  ///< flattened (s, d) policy input
  double heating_c = 0.0;
  double cooling_c = 0.0;
  env::Disturbance forecast[kTelemetryMaxForecast] = {};

  serve::RequestKind request_kind() const { return static_cast<serve::RequestKind>(kind); }
  std::vector<double> obs_vector() const { return {obs, obs + obs_len}; }
  /// Rebuilds the optimizer forecast (empty for DT records).
  std::vector<env::Disturbance> forecast_vector() const;
};
static_assert(std::is_trivially_copyable_v<TelemetryRecord>,
              "the seqlock ring and the segment wire format both require POD records");

struct TelemetryConfig {
  /// Independent rings; a session's records always land in the same shard
  /// (session id masked by the shard count, rounded up to a power of two
  /// so the fast path avoids an integer division), so per-session order
  /// is the ticket order.
  std::size_t shards = 4;
  /// Slots per shard, rounded up to a power of two. Size to the expected
  /// drain interval: producers overwrite (and drain() counts as lost)
  /// anything older than one lap. Slots are compact (~128 B — forecasts
  /// live in their own ring), so the default ring stays cache-resident
  /// and the fast-path write never streams through DRAM.
  std::size_t capacity_per_shard = 4096;
  /// Forecast ring slots per shard (MBRL records only; one ~800 B entry
  /// per decision). MBRL traffic is orders of magnitude rarer than DT, so
  /// this ring can be much smaller.
  std::size_t forecast_capacity_per_shard = 512;
  /// Deterministic DT sampling: 1 records every DT decision (full-fidelity
  /// capture for replay tests); a power-of-two period P > 1 records DT
  /// decisions in runs of two — decision_index % P in {0, 1} — so
  /// transition pairing still works while the fast-path duty cycle (and
  /// hence capture overhead) drops by ~P/2. Index-based, so sampling is
  /// reproducible and independent of threads. MBRL decisions are always
  /// recorded (they are thousands of times more expensive than the tap).
  std::size_t dt_sample_period = 1;
};

/// Session metadata recorded off the hot path (register_session), keyed
/// into the trace so records stay fixed-size.
struct TelemetrySession {
  serve::SessionId id = 0;
  std::uint64_t seed = 0;
  std::string policy_key;
};

/// A drained capture: everything needed to rebuild datasets and replay.
struct TelemetryTrace {
  std::vector<TelemetrySession> sessions;  ///< sorted by id on write
  std::vector<TelemetryRecord> records;
};

class TelemetryLog : public serve::DecisionTap {
 public:
  explicit TelemetryLog(TelemetryConfig config = {});

  TelemetryLog(const TelemetryLog&) = delete;
  TelemetryLog& operator=(const TelemetryLog&) = delete;

  const TelemetryConfig& config() const { return config_; }
  std::size_t capacity_per_shard() const;

  /// Registers session metadata (seed + policy key) for the trace. Not on
  /// the serving path: call it when the session opens (the fleet harness's
  /// on_session_open hook does).
  void register_session(serve::SessionId id, std::uint64_t seed, const std::string& policy_key);
  std::vector<TelemetrySession> sessions() const;
  /// Registered-session count without copying the table (registrations
  /// only ever add, so a size change is a valid cache invalidator).
  std::size_t session_count() const;

  /// The tap: wait-free record of one decision (see file comment).
  void on_decision(const serve::DecisionEvent& event) noexcept override;

  /// Appends every record published since the last drain to `out` and
  /// returns how many were lost (lapped or torn) in the drained window.
  /// Single consumer: drains from concurrent threads must be externally
  /// serialized (the adaptation controller's pump is that consumer).
  std::uint64_t drain(std::vector<TelemetryRecord>& out);

  /// Monotonic counters. `recorded` counts successful ring publications;
  /// `lost` accumulates drain()-detected losses, of which `overwritten`
  /// is the lap-overwrite share (the rest are torn slots or lapped
  /// forecasts); `sampling_skips` counts DT decisions the deterministic
  /// sampler chose not to record. The last three are obs::InstanceCounters
  /// and `recorded` is summed from the ring heads, so this per-log
  /// snapshot stays exact while the same events land in the process-wide
  /// `telemetry_*` instruments, where capture gaps show on the same
  /// dashboard as everything else.
  struct Stats {
    std::uint64_t recorded = 0;
    std::uint64_t lost = 0;
    std::uint64_t overwritten = 0;
    std::uint64_t sampling_skips = 0;
  };
  Stats stats() const;

 private:
  /// Ring payload without the forecast block: ~2 cache lines, so a DT
  /// record write stays resident instead of streaming a ~1 KB slot.
  struct CompactRecord {
    serve::SessionId session = 0;
    std::uint64_t decision_index = 0;
    std::uint64_t session_seed = 0;
    std::uint64_t policy_version = 0;
    std::uint8_t kind = 0;
    std::uint8_t forecast_truncated = 0;
    std::uint16_t forecast_len = 0;
    std::uint32_t action_index = 0;
    std::uint16_t obs_len = 0;
    std::uint16_t zone_temp_dim = 0;
    double latency_seconds = 0.0;
    double obs[kTelemetryMaxObsDims] = {};
    double heating_c = 0.0;
    double cooling_c = 0.0;
    /// Ticket into the shard's forecast ring; kNoForecast for DT records.
    std::uint64_t forecast_ticket = 0;
  };

  struct Slot {
    /// Seqlock: 2*ticket+1 while writing, 2*ticket+2 once published.
    std::atomic<std::uint64_t> seq{0};
    CompactRecord record;
  };

  struct ForecastSlot {
    std::atomic<std::uint64_t> seq{0};
    env::Disturbance entries[kTelemetryMaxForecast];
  };

  struct Shard {
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> head{0};  ///< next ticket to claim
    std::uint64_t tail = 0;              ///< next ticket to drain (consumer-owned)
    std::vector<ForecastSlot> forecast_slots;
    std::atomic<std::uint64_t> forecast_head{0};
  };

  TelemetryConfig config_;
  std::size_t shard_mask_ = 0;
  std::size_t slot_mask_ = 0;
  std::size_t forecast_mask_ = 0;
  std::size_t dt_sample_mask_ = 0;  ///< 0 = record every DT decision
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::InstanceCounter lost_{"telemetry_lost_total"};
  obs::InstanceCounter overwritten_{"telemetry_overwritten_total"};
  obs::InstanceCounter sampling_skips_{"telemetry_sampling_skips_total"};
  /// Global only: `recorded` is summed from the ring heads.
  obs::Counter& records_;

  mutable std::mutex sessions_mutex_;
  std::map<serve::SessionId, TelemetrySession> sessions_;
};

/// Record wire-layout version, stamped in every segment header (bumped on
/// any layout change; readers refuse any other version). v2 carries
/// per-record obs_len / zone_temp_dim with a length-prefixed observation
/// block and the temporal forecast fields.
inline constexpr std::uint32_t kTelemetryTraceVersion = 2;

/// True when `next` is the decision right after `prev` in the same session,
/// i.e. no capture gap lies between them.
bool consecutive(const TelemetryRecord& prev, const TelemetryRecord& next);

/// The one transition-pairing rule: `next` (consecutive) is the observed
/// outcome of `prev`. Returns prev's observation + action with next's zone
/// temperature; nothing across a capture gap or for a non-finite value
/// (DynamicsModel::train and fine_tune throw on any).
std::optional<dyn::Transition> pair_transition(const TelemetryRecord& prev,
                                               const TelemetryRecord& next);

/// Pairs session-consecutive decisions (d, d+1) into transitions with
/// pair_transition.
dyn::TransitionDataset trace_to_dataset(const TelemetryTrace& trace);

/// Serving artifacts for replay, keyed the way records reference them.
struct ReplayAssets {
  /// DT bundles by registry version (PolicyRegistry::install order).
  std::map<std::uint64_t, std::shared_ptr<const core::DtPolicy>> policies;
  /// MBRL models by scheduler generation (install_model return values).
  std::map<std::uint64_t, std::shared_ptr<const dyn::DynamicsModel>> models;
};

struct ReplayConfig {
  /// Must match the serving scheduler's optimizer/action/reward setup —
  /// replay recomputes decisions, it does not approximate them.
  control::RandomShootingConfig rs;
  control::ActionSpaceConfig action_space;
  env::RewardConfig reward;
  /// Engine for batched candidate scoring (null = serial). Decisions are
  /// bit-identical for any thread count (the PR 1/3 invariants), which the
  /// replay tests sweep.
  std::shared_ptr<const control::RolloutEngine> engine;
};

/// Incremental replay-fingerprint step (FNV-1a 64). Fold the recorded
/// action to fingerprint what was served, or a replayed action to
/// fingerprint what replay reproduces — equal results mean bit-identical
/// replay of the whole sequence.
std::uint64_t replay_fingerprint_update(std::uint64_t h, const TelemetryRecord& record,
                                        std::uint64_t action_index);
/// FNV-1a seed of the replay fingerprints. Not the standard offset basis
/// (common::kFnv1aOffsetBasis): sealed segment headers store digests made
/// with this value, so it must never change.
inline constexpr std::uint64_t kReplayFingerprintSeed = 1469598103934665603ull;

struct ReplayReport {
  std::size_t replayed = 0;
  std::size_t matched = 0;
  std::size_t skipped_truncated = 0;  ///< forecast longer than the inline cap
  std::size_t skipped_missing_assets = 0;  ///< no artifact for the record's version
  /// (record index, recorded action, replayed action) of the first
  /// mismatches, for diagnostics.
  std::vector<std::array<std::size_t, 3>> mismatches;
  /// replay_fingerprint_update() folded over every record in order: the
  /// replayed action, or the recorded one for a skipped record. Equal to
  /// a sealed segment header's fingerprint iff replay reproduced it.
  std::uint64_t fingerprint = kReplayFingerprintSeed;

  bool bit_identical() const { return replayed > 0 && matched == replayed; }
};

/// Recomputes every replayable decision in the trace from its record alone
/// and compares with what was served. A trace captured with a large-enough
/// ring replays bit-identically at any VERI_HVAC_THREADS (test-locked).
/// The one replay loop: `trace replay` and verify_segment() both run it.
ReplayReport replay_trace(const TelemetryTrace& trace, const ReplayAssets& assets,
                          const ReplayConfig& config);

namespace detail {
/// Field-by-field binary (de)serialization of one record/session — the
/// body of a segment frame (kTelemetryTraceVersion layout). The writers
/// append one memcpy per field (the durable store's per-record fast
/// path); the readers throw std::runtime_error on a short stream or
/// out-of-range lengths.
void append_record(std::string& out, const TelemetryRecord& record);
void append_session(std::string& out, const TelemetrySession& session);
TelemetryRecord read_record(std::istream& in);
TelemetrySession read_session(std::istream& in);
}  // namespace detail

}  // namespace verihvac::adapt
