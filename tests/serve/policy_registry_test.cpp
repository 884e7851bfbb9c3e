#include "serve/policy_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/policy_io.hpp"
#include "envlib/feature_schema.hpp"
#include "serve_test_utils.hpp"

namespace verihvac::serve {
namespace {

using testing::toy_policy;

std::shared_ptr<const core::DtPolicy> toy_time_aware_policy(std::uint64_t seed = 7) {
  control::ActionSpace actions{control::ActionSpaceConfig{}};
  Rng rng(seed);
  core::DecisionDataset data;
  for (int i = 0; i < 200; ++i) {
    core::DecisionRecord rec;
    rec.input = {rng.uniform(12.0, 30.0), rng.uniform(-10.0, 35.0), rng.uniform(20.0, 95.0),
                 rng.uniform(0.0, 12.0),  rng.uniform(0.0, 600.0),
                 rng.bernoulli(0.5) ? 11.0 : 0.0,
                 rng.uniform(-1.0, 1.0),  rng.uniform(-1.0, 1.0),
                 rng.bernoulli(0.5) ? 11.0 : 0.0};
    rec.action_index = rng.index(actions.size());
    data.records.push_back(std::move(rec));
  }
  return std::make_shared<const core::DtPolicy>(
      core::DtPolicy::fit(data, actions, {}, env::time_aware_schema()));
}

TEST(PolicyRegistryTest, InstallThenLookupReturnsSamePolicy) {
  PolicyRegistry registry;
  const auto policy = toy_policy();
  const std::uint64_t version = registry.install("Pittsburgh/baseline", policy);
  EXPECT_GE(version, 1u);

  const PolicySnapshot snapshot = registry.lookup("Pittsburgh/baseline");
  EXPECT_EQ(snapshot.policy.get(), policy.get());
  EXPECT_EQ(snapshot.version, version);
  EXPECT_TRUE(registry.contains("Pittsburgh/baseline"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(PolicyRegistryTest, VersionsAreMonotonicAcrossKeys) {
  PolicyRegistry registry;
  const std::uint64_t v1 = registry.install("a", toy_policy(1));
  const std::uint64_t v2 = registry.install("b", toy_policy(2));
  const std::uint64_t v3 = registry.install("a", toy_policy(3));  // hot swap
  EXPECT_LT(v1, v2);
  EXPECT_LT(v2, v3);
  EXPECT_EQ(registry.lookup("a").version, v3);
  EXPECT_EQ(registry.lookup("b").version, v2);
}

TEST(PolicyRegistryTest, HotSwapKeepsInFlightSnapshotAlive) {
  PolicyRegistry registry;
  const auto old_policy = toy_policy(1);
  registry.install("key", old_policy);
  const PolicySnapshot in_flight = registry.lookup("key");

  registry.install("key", toy_policy(2));
  // The swap must not invalidate the snapshot a serving thread holds.
  EXPECT_EQ(in_flight.policy.get(), old_policy.get());
  ASSERT_NE(in_flight.policy, nullptr);
  EXPECT_GT(in_flight.policy->tree().node_count(), 0u);
  // New lookups see the new bundle.
  EXPECT_NE(registry.lookup("key").policy.get(), old_policy.get());
}

TEST(PolicyRegistryTest, LookupUnknownKeyThrows) {
  PolicyRegistry registry;
  EXPECT_THROW(registry.lookup("missing"), std::out_of_range);
  const PolicySnapshot snapshot = registry.try_lookup("missing");
  EXPECT_EQ(snapshot.policy, nullptr);
  EXPECT_EQ(snapshot.version, 0u);
}

TEST(PolicyRegistryTest, InstallNullPolicyThrows) {
  PolicyRegistry registry;
  EXPECT_THROW(registry.install("key", nullptr), std::invalid_argument);
}

TEST(PolicyRegistryTest, HotSwapRejectsSchemaMismatch) {
  // A hot-swap must not change the observation layout out from under the
  // sessions already serving the key: installing a time-aware bundle over
  // a baseline incumbent is refused, and the incumbent keeps serving.
  PolicyRegistry registry;
  const auto incumbent = toy_policy();
  const std::uint64_t version = registry.install("Pittsburgh/baseline", incumbent);
  EXPECT_THROW(registry.install("Pittsburgh/baseline", toy_time_aware_policy()),
               std::invalid_argument);
  const PolicySnapshot snapshot = registry.lookup("Pittsburgh/baseline");
  EXPECT_EQ(snapshot.policy.get(), incumbent.get());
  EXPECT_EQ(snapshot.version, version);

  // Heterogeneous schemas coexist fine under different keys...
  registry.install("Pittsburgh/time-aware", toy_time_aware_policy());
  EXPECT_EQ(registry.lookup("Pittsburgh/time-aware").policy->schema(),
            env::time_aware_schema());
  EXPECT_EQ(registry.size(), 2u);

  // ...and erasing the key first is the sanctioned way to change schemas.
  EXPECT_TRUE(registry.erase("Pittsburgh/baseline"));
  registry.install("Pittsburgh/baseline", toy_time_aware_policy());
  EXPECT_EQ(registry.lookup("Pittsburgh/baseline").policy->schema(),
            env::time_aware_schema());
}

TEST(PolicyRegistryTest, EraseRemovesKey) {
  PolicyRegistry registry;
  registry.install("key", toy_policy());
  EXPECT_TRUE(registry.erase("key"));
  EXPECT_FALSE(registry.erase("key"));
  EXPECT_FALSE(registry.contains("key"));
  EXPECT_EQ(registry.size(), 0u);
}

TEST(PolicyRegistryTest, KeysAreSortedAndComplete) {
  PolicyRegistry registry;
  registry.install("b", toy_policy(1));
  registry.install("a", toy_policy(2));
  registry.install("c", toy_policy(3));
  const std::vector<std::string> keys = registry.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
  EXPECT_EQ(keys[2], "c");
}

TEST(PolicyRegistryTest, InstallFileLoadsBundle) {
  const auto policy = toy_policy();
  const std::string path = ::testing::TempDir() + "/registry_bundle.policy";
  core::save_policy(*policy, path);

  PolicyRegistry registry;
  registry.install_file("from-disk", path);
  const PolicySnapshot snapshot = registry.lookup("from-disk");
  EXPECT_EQ(snapshot.policy->tree().node_count(), policy->tree().node_count());
  EXPECT_EQ(snapshot.policy->actions().size(), policy->actions().size());
}

TEST(PolicyRegistryTest, ConcurrentLookupsSurviveHotSwaps) {
  PolicyRegistry registry;
  registry.install("key", toy_policy(0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> decided{0};
  std::vector<std::thread> readers;
  const std::vector<double> x = {20.0, -5.0, 50.0, 3.0, 120.0, 11.0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const PolicySnapshot snapshot = registry.lookup("key");
        // Decide through the snapshot: a concurrent swap must never hand
        // out a half-published bundle.
        snapshot.policy->decide_index(x);
        decided.fetch_add(1);
      }
    });
  }
  for (std::uint64_t i = 1; i <= 25; ++i) registry.install("key", toy_policy(i));
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(decided.load(), 0u);
}

// lookup() serves from a per-thread copy of the table, revalidated against
// the registry's epoch: writes made on another thread after this thread's
// cache is warm must still be seen by its next lookup.
TEST(PolicyRegistryTest, WarmThreadCacheSeesInstallAndEraseFromAnotherThread) {
  PolicyRegistry registry;
  const auto first = toy_policy(1);
  registry.install("key", first);
  EXPECT_EQ(registry.lookup("key").policy.get(), first.get());  // warms this thread's cache

  const auto second = toy_policy(2);
  std::uint64_t second_version = 0;
  std::thread([&] { second_version = registry.install("key", second); }).join();
  const PolicySnapshot swapped = registry.lookup("key");
  EXPECT_EQ(swapped.policy.get(), second.get());
  EXPECT_EQ(swapped.version, second_version);

  std::thread([&] { EXPECT_TRUE(registry.erase("key")); }).join();
  EXPECT_THROW(registry.lookup("key"), std::out_of_range);
  EXPECT_EQ(registry.try_lookup("key").policy, nullptr);
  // The snapshot taken before the erase still owns its bundle.
  EXPECT_EQ(swapped.policy.get(), second.get());
  EXPECT_GT(swapped.policy->tree().node_count(), 0u);
}

// One thread caches one table at a time; alternating registries must never
// serve one registry's bundle from the other's cache — including a registry
// constructed in the storage of a destroyed one at the same epoch, which
// only the registry uid tells apart.
TEST(PolicyRegistryTest, ThreadCacheKeepsRegistriesApart) {
  PolicyRegistry a;
  PolicyRegistry b;
  const auto policy_a = toy_policy(1);
  const auto policy_b = toy_policy(2);
  a.install("key", policy_a);
  b.install("key", policy_b);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(a.lookup("key").policy.get(), policy_a.get());
    EXPECT_EQ(b.lookup("key").policy.get(), policy_b.get());
  }

  alignas(PolicyRegistry) std::byte storage[sizeof(PolicyRegistry)];
  PolicyRegistry* registry = new (storage) PolicyRegistry();
  registry->install("key", policy_a);
  EXPECT_EQ(registry->lookup("key").policy.get(), policy_a.get());
  registry->~PolicyRegistry();
  registry = new (storage) PolicyRegistry();
  registry->install("key", policy_b);  // same address, same epoch as its predecessor
  EXPECT_EQ(registry->lookup("key").policy.get(), policy_b.get());
  registry->~PolicyRegistry();
}

}  // namespace
}  // namespace verihvac::serve
