#include "serve/policy_registry.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/policy_io.hpp"

namespace verihvac::serve {

namespace {

/// Source of PolicyRegistry uids; 0 is never issued, so an empty thread
/// cache never matches a live registry.
std::atomic<std::uint64_t> next_registry_uid{1};

}  // namespace

PolicyRegistry::PolicyRegistry()
    : uid_(next_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

std::uint64_t PolicyRegistry::install(const std::string& key,
                                      std::shared_ptr<const core::DtPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("PolicyRegistry::install: null policy for key '" + key + "'");
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // A hot-swap must not change the observation layout out from under the
  // sessions already serving this key: their feature vectors would be
  // silently misread by the new tree. Heterogeneous schemas coexist fine
  // under *different* keys; replacing a bundle requires the same schema.
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.policy->schema() != policy->schema()) {
    throw std::invalid_argument(
        "PolicyRegistry::install: schema mismatch for key '" + key + "': incumbent uses '" +
        it->second.policy->schema().name() + "' (" +
        std::to_string(it->second.policy->schema().dims()) + " dims), replacement uses '" +
        policy->schema().name() + "' (" + std::to_string(policy->schema().dims()) +
        " dims); erase the key first to change schemas");
  }
  const std::uint64_t version = next_version_++;
  entries_[key] = PolicySnapshot{std::move(policy), version};
  epoch_.fetch_add(1, std::memory_order_release);
  return version;
}

std::uint64_t PolicyRegistry::install_file(const std::string& key, const std::string& path) {
  // Parse outside the lock: a slow disk must not stall serving lookups.
  auto policy = std::make_shared<const core::DtPolicy>(core::load_policy(path));
  return install(key, std::move(policy));
}

PolicySnapshot PolicyRegistry::lookup(const std::string& key) const {
  PolicySnapshot snapshot = try_lookup(key);
  if (snapshot.policy == nullptr) {
    throw std::out_of_range("PolicyRegistry: no bundle installed for key '" + key + "'");
  }
  return snapshot;
}

PolicySnapshot PolicyRegistry::try_lookup(const std::string& key) const {
  const std::shared_ptr<const Table>& table = thread_table();
  const auto it = table->find(key);
  if (it == table->end()) return PolicySnapshot{};
  // The snapshot owns the thread's table copy (which owns the bundle), so
  // copying it touches this thread's reference count, not the bundle's.
  return PolicySnapshot{std::shared_ptr<const core::DtPolicy>(table, it->second.policy.get()),
                        it->second.version};
}

const std::shared_ptr<const PolicyRegistry::Table>& PolicyRegistry::thread_table() const {
  struct Cache {
    std::uint64_t uid = 0;
    std::uint64_t epoch = 0;
    std::shared_ptr<const Table> table;
  };
  thread_local Cache cache;
  if (cache.uid != uid_ || cache.epoch != epoch_.load(std::memory_order_acquire)) {
    // Writers bump the epoch under the exclusive lock, so the epoch read
    // here is exactly the one the copied table was published at.
    std::shared_lock<std::shared_mutex> lock(mutex_);
    cache.table = std::make_shared<const Table>(entries_);
    cache.uid = uid_;
    cache.epoch = epoch_.load(std::memory_order_relaxed);
  }
  return cache.table;
}

bool PolicyRegistry::contains(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

bool PolicyRegistry::erase(const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (entries_.erase(key) == 0) return false;
  epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

std::size_t PolicyRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> PolicyRegistry::keys() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

}  // namespace verihvac::serve
