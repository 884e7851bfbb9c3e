#include "serve/session_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve_test_utils.hpp"

namespace verihvac::serve {
namespace {

using testing::cold_occupied;

TEST(SessionManagerTest, OpenCloseContains) {
  SessionManager sessions;
  SessionConfig config;
  config.policy_key = "Pittsburgh/baseline";
  config.seed = 42;
  const SessionId id = sessions.open(config);
  EXPECT_TRUE(sessions.contains(id));
  EXPECT_EQ(sessions.size(), 1u);

  const SessionState state = sessions.snapshot(id);
  EXPECT_EQ(state.id, id);
  EXPECT_EQ(state.config.policy_key, "Pittsburgh/baseline");
  EXPECT_EQ(state.decisions, 0u);

  EXPECT_TRUE(sessions.close(id));
  EXPECT_FALSE(sessions.contains(id));
  EXPECT_FALSE(sessions.close(id));
  EXPECT_EQ(sessions.size(), 0u);
}

TEST(SessionManagerTest, TicketsPinSeedAndAdvanceStreams) {
  SessionManager sessions;
  SessionConfig config;
  config.policy_key = "key";
  config.seed = 404;
  const SessionId id = sessions.open(config);

  // Stream ids are the decision counter at admission: 0, 1, 2, ... — the
  // coordinates Rng::stream replays a decision's draws from.
  for (std::uint64_t d = 0; d < 5; ++d) {
    const DecisionTicket ticket =
        sessions.begin_decision(id, RequestKind::kMbrlFallback, cold_occupied());
    EXPECT_EQ(ticket.session, id);
    EXPECT_EQ(ticket.policy_key, "key");
    EXPECT_EQ(ticket.seed, 404u);
    EXPECT_EQ(ticket.stream, d);
  }
  const SessionState state = sessions.snapshot(id);
  EXPECT_EQ(state.decisions, 5u);
  EXPECT_EQ(state.mbrl_decisions, 5u);
  EXPECT_EQ(state.dt_decisions, 0u);
}

TEST(SessionManagerTest, PerKindCountersSplit) {
  SessionManager sessions;
  const SessionId id = sessions.open({});
  sessions.begin_decision(id, RequestKind::kDtPolicy, cold_occupied());
  sessions.begin_decision(id, RequestKind::kDtPolicy, cold_occupied());
  sessions.begin_decision(id, RequestKind::kMbrlFallback, cold_occupied());
  const SessionState state = sessions.snapshot(id);
  EXPECT_EQ(state.decisions, 3u);
  EXPECT_EQ(state.dt_decisions, 2u);
  EXPECT_EQ(state.mbrl_decisions, 1u);
}

TEST(SessionManagerTest, UnknownSessionThrows) {
  SessionManager sessions;
  EXPECT_THROW(sessions.begin_decision(999, RequestKind::kDtPolicy, cold_occupied()),
               std::out_of_range);
  EXPECT_THROW(sessions.snapshot(999), std::out_of_range);
}

TEST(SessionManagerTest, EvictIdleClosesOnlyStaleSessions) {
  SessionManager sessions;
  const SessionId active = sessions.open({});
  const SessionId idle = sessions.open({});

  // `idle` decides once, then goes quiet while `active` racks up traffic.
  sessions.begin_decision(idle, RequestKind::kDtPolicy, cold_occupied());
  for (int i = 0; i < 20; ++i) {
    sessions.begin_decision(active, RequestKind::kDtPolicy, cold_occupied());
  }
  EXPECT_EQ(sessions.admission_clock(), 21u);

  EXPECT_EQ(sessions.evict_idle(/*max_idle_decisions=*/50), 0u);
  EXPECT_EQ(sessions.evict_idle(/*max_idle_decisions=*/10), 1u);
  EXPECT_FALSE(sessions.contains(idle));
  EXPECT_TRUE(sessions.contains(active));
  EXPECT_EQ(sessions.size(), 1u);
}

TEST(SessionManagerTest, FreshlyOpenedSessionSurvivesEviction) {
  SessionManager sessions;
  const SessionId talker = sessions.open({});
  for (int i = 0; i < 100; ++i) {
    sessions.begin_decision(talker, RequestKind::kDtPolicy, cold_occupied());
  }
  // Opened just now, zero decisions yet: stamped at the current clock, so
  // a sweep must not reap it.
  const SessionId fresh = sessions.open({});
  EXPECT_EQ(sessions.evict_idle(/*max_idle_decisions=*/50), 0u);
  EXPECT_TRUE(sessions.contains(fresh));
}

TEST(SessionManagerTest, EvictionNeverPerturbsSurvivorStreams) {
  // The eviction lock: a surviving session's tickets after a sweep are
  // bit-identical to the same session's tickets without the sweep —
  // eviction can never change which RNG stream a decision replays from.
  SessionManager with_sweep;
  SessionManager without_sweep;
  SessionConfig survivor_config;
  survivor_config.seed = 7777;

  const SessionId survivor_a = with_sweep.open(survivor_config);
  const SessionId survivor_b = without_sweep.open(survivor_config);
  std::vector<SessionId> churn;
  for (int i = 0; i < 8; ++i) churn.push_back(with_sweep.open({}));

  std::vector<DecisionTicket> tickets_a;
  std::vector<DecisionTicket> tickets_b;
  for (int d = 0; d < 6; ++d) {
    tickets_a.push_back(
        with_sweep.begin_decision(survivor_a, RequestKind::kMbrlFallback, cold_occupied()));
    tickets_b.push_back(
        without_sweep.begin_decision(survivor_b, RequestKind::kMbrlFallback, cold_occupied()));
    if (d == 2) {
      // Mid-run sweep reaps the churned sessions (they never decided).
      EXPECT_EQ(with_sweep.evict_idle(/*max_idle_decisions=*/2), churn.size());
    }
  }
  for (std::size_t d = 0; d < tickets_a.size(); ++d) {
    EXPECT_EQ(tickets_a[d].seed, tickets_b[d].seed);
    EXPECT_EQ(tickets_a[d].stream, tickets_b[d].stream);
    EXPECT_EQ(tickets_a[d].stream, d);
  }
}

TEST(SessionManagerTest, ConcurrentOpensYieldUniqueIds) {
  SessionManager sessions(/*shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::vector<SessionId>> ids(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sessions, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SessionConfig config;
        config.seed = static_cast<std::uint64_t>(t * kPerThread + i);
        ids[t].push_back(sessions.open(config));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<SessionId> unique;
  for (const auto& batch : ids) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(sessions.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(SessionManagerTest, ConcurrentDecisionsOnOneSessionCoverEveryStream) {
  SessionManager sessions;
  const SessionId id = sessions.open({});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::vector<std::uint64_t>> streams(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sessions, &streams, id, t] {
      for (int i = 0; i < kPerThread; ++i) {
        streams[t].push_back(
            sessions.begin_decision(id, RequestKind::kMbrlFallback, cold_occupied()).stream);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Stream ids must be a permutation of [0, N): no duplicates, no gaps —
  // two concurrent decisions can never replay the same draws.
  std::set<std::uint64_t> unique;
  for (const auto& batch : streams) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(*unique.rbegin(), static_cast<std::uint64_t>(kThreads * kPerThread - 1));
}

}  // namespace
}  // namespace verihvac::serve
