#include "serve/session_manager.hpp"

#include <stdexcept>
#include <utility>

namespace verihvac::serve {

SessionManager::SessionManager(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

SessionId SessionManager::open(SessionConfig config) {
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  SessionState state;
  state.id = id;
  state.config = std::move(config);
  state.last_active = admissions_.load(std::memory_order_relaxed);
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.sessions.emplace(id, std::move(state));
  return id;
}

bool SessionManager::close(SessionId id) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.sessions.erase(id) > 0;
}

std::size_t SessionManager::evict_idle(std::uint64_t max_idle_decisions) {
  const std::uint64_t now = admissions_.load(std::memory_order_relaxed);
  std::size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
      // A session stamped *after* the clock snapshot (concurrent
      // begin_decision) reads as last_active > now; it is maximally
      // fresh, never idle — the unsigned subtraction must not wrap.
      const std::uint64_t last = it->second.last_active;
      if (last <= now && now - last > max_idle_decisions) {
        it = shard.sessions.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  return evicted;
}

bool SessionManager::contains(SessionId id) const {
  const Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.sessions.count(id) > 0;
}

std::size_t SessionManager::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.sessions.size();
  }
  return total;
}

DecisionTicket SessionManager::begin_decision(SessionId id, RequestKind kind,
                                              const env::Observation& /*obs*/) {
  Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) {
    throw std::out_of_range("SessionManager: unknown session " + std::to_string(id));
  }
  SessionState& state = it->second;
  state.last_active = admissions_.fetch_add(1, std::memory_order_relaxed) + 1;

  DecisionTicket ticket;
  ticket.session = id;
  ticket.policy_key = state.config.policy_key;
  ticket.seed = state.config.seed;
  ticket.stream = state.decisions;

  ++state.decisions;
  if (kind == RequestKind::kDtPolicy) {
    ++state.dt_decisions;
  } else {
    ++state.mbrl_decisions;
  }
  return ticket;
}

SessionState SessionManager::snapshot(SessionId id) const {
  const Shard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) {
    throw std::out_of_range("SessionManager: unknown session " + std::to_string(id));
  }
  return it->second;
}

}  // namespace verihvac::serve
