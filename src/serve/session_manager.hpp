// Per-building session state for thousands of concurrent sessions.
//
// Every simulated building the service controls holds a session: which
// policy bundle serves it, per-kind decision counters, and — the
// determinism keystone — the session's root RNG seed. Sessions keep no
// observation history: the durable telemetry log records every served
// observation, so admission copies nothing but the ticket.
// Decision d of session s draws from the counter-based stream
// Rng::stream(seed_s, d) (common/rng.hpp), so an MBRL decision depends only
// on (session, decision index, observation, forecast): never on which
// worker thread served it, what else shared its micro-batch, or the order
// batches drained. That is the whole bit-identity contract of the serving
// layer — the scalar per-session path and the cross-session micro-batched
// path replay the exact same streams (locked in by
// tests/serve/request_scheduler_test.cpp at VERI_HVAC_THREADS=1/4/8).
//
// The table is sharded: session ids hash to independent locks, each shard
// on its own cache line, so front-end threads serving different buildings
// do not contend on a lock or false-share a line. The one manager-wide
// write per admission is the admission clock evict_idle() measures
// idleness against.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/request.hpp"

namespace verihvac::serve {

struct SessionConfig {
  /// PolicyRegistry key of the bundle serving this building.
  std::string policy_key = "default";
  /// Root seed of the session's per-decision RNG streams.
  std::uint64_t seed = 0;
};

/// Observable session state (snapshot() returns a copy).
struct SessionState {
  SessionId id = 0;
  SessionConfig config;
  std::uint64_t decisions = 0;  ///< total decisions = next stream id
  std::uint64_t dt_decisions = 0;
  std::uint64_t mbrl_decisions = 0;
  /// Manager-wide admission-clock reading at this session's last
  /// begin_decision (its open() reading before any decision) — the
  /// idleness measure evict_idle() sweeps on.
  std::uint64_t last_active = 0;
};

/// Everything a decision needs from its session, captured atomically at
/// admission time so serving can proceed without the session lock.
struct DecisionTicket {
  SessionId session = 0;
  /// Resolved per decision by PolicyRegistry::lookup(), which takes no
  /// lock: it checks the registry's epoch against the serving thread's
  /// cached copy of the table and re-copies only after a publish.
  std::string policy_key;
  std::uint64_t seed = 0;
  /// Stream id of this decision: the session's decision counter at
  /// admission. Rng::stream(seed, stream) replays the decision's draws.
  std::uint64_t stream = 0;
};

class SessionManager {
 public:
  explicit SessionManager(std::size_t shards = 16);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session; ids are unique for the manager's lifetime.
  SessionId open(SessionConfig config);

  /// Closes a session; returns whether it existed.
  bool close(SessionId id);

  /// Evicts every session that has been idle for more than
  /// `max_idle_decisions` manager-wide admissions (i.e. admission_clock()
  /// - last_active > max_idle_decisions); returns how many were closed.
  /// Long fleet runs with building churn call this periodically (the
  /// adaptation controller's housekeeping does) so shards don't grow
  /// unboundedly. Eviction only erases map entries: surviving sessions
  /// keep their seeds and decision counters, so their RNG streams are
  /// untouched — a decision after a sweep is bit-identical to the same
  /// decision without it (test-locked).
  std::size_t evict_idle(std::uint64_t max_idle_decisions);

  /// Total begin_decision() admissions across all sessions — the logical
  /// clock idleness is measured against.
  std::uint64_t admission_clock() const { return admissions_.load(std::memory_order_relaxed); }

  bool contains(SessionId id) const;
  std::size_t size() const;
  /// Number of lock shards (session id % shard_count() selects a shard).
  /// The request scheduler aligns its MBRL queue sharding to this so a
  /// session's admissions and its batch queue live on the same shard
  /// index.
  std::size_t shard_count() const { return shards_.size(); }

  /// Admits one decision: bumps the per-kind counters and the admission
  /// clock, and returns the ticket (policy key + RNG stream coordinates).
  /// One lock acquisition; throws std::out_of_range for an unknown
  /// session. `obs` is not retained.
  DecisionTicket begin_decision(SessionId id, RequestKind kind, const env::Observation& obs);

  /// Copy of the session's current state (throws std::out_of_range).
  SessionState snapshot(SessionId id) const;

 private:
  /// Padded to its own cache line: neighbouring shards' locks must not
  /// share one.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<SessionId, SessionState> sessions;
  };

  Shard& shard_for(SessionId id) { return shards_[id % shards_.size()]; }
  const Shard& shard_for(SessionId id) const { return shards_[id % shards_.size()]; }

  std::vector<Shard> shards_;
  std::atomic<SessionId> next_id_{1};
  std::atomic<std::uint64_t> admissions_{0};
};

}  // namespace verihvac::serve
