// Versioned, hot-swappable store of verified DT policy bundles.
//
// The deployable artifact of the paper is the policy bundle
// (core/policy_io): a CART tree plus the action-space enumeration it was
// fitted against. At fleet scale one process serves many bundles — one per
// building preset x comfort band (the campaign grid of PR 2) — and bundles
// get re-extracted and re-certified while traffic is live. The registry
// gives that lifecycle a thread-safe home:
//
//   * install() publishes a bundle under a string key ("Pittsburgh/
//     oversized/winter"-style, the campaign scenario convention) and bumps
//     a registry-global monotonic version;
//   * lookup() is the serving fast path and takes no lock: install() and
//     erase() bump an atomic epoch under the writer lock, and every thread
//     caches (registry uid, epoch, copy of the table). A lookup reads the
//     epoch, and only when the uid or the epoch differs from its cache does
//     it re-copy the table under the shared lock. The uid is process-unique,
//     so a registry constructed where another was destroyed never reuses a
//     stale table. Each thread caches one table, which keeps its bundles
//     alive until that thread's next lookup refreshes it (or the thread
//     exits), so the memory held is bounded by threads x one table;
//   * lookup() returns a shared_ptr snapshot, so a hot-swap never
//     invalidates a decision that is already in flight — in-flight requests
//     finish on the version they looked up, new requests see the new one.
//     The snapshot shares ownership of the calling thread's table copy, so
//     taking it bumps a reference count only that thread writes, not one
//     every serving core bounces.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dt_policy.hpp"

namespace verihvac::serve {

/// What lookup() hands a serving thread: an owning snapshot of the bundle
/// plus the version it was published as.
struct PolicySnapshot {
  std::shared_ptr<const core::DtPolicy> policy;
  std::uint64_t version = 0;
};

class PolicyRegistry {
 public:
  PolicyRegistry();

  /// Publishes (or hot-swaps) the bundle under `key`; returns the version
  /// assigned. Versions are monotonic across the whole registry, so any
  /// observed version order is a publication order.
  std::uint64_t install(const std::string& key, std::shared_ptr<const core::DtPolicy> policy);

  /// Loads a policy-bundle file (core::load_policy) and installs it.
  std::uint64_t install_file(const std::string& key, const std::string& path);

  /// Serving lookup. Throws std::out_of_range for an unknown key.
  PolicySnapshot lookup(const std::string& key) const;

  /// Non-throwing variant: empty snapshot (null policy, version 0) on miss.
  PolicySnapshot try_lookup(const std::string& key) const;

  bool contains(const std::string& key) const;
  /// Removes a bundle; returns whether the key existed. In-flight
  /// snapshots keep their shared_ptr alive.
  bool erase(const std::string& key);

  std::size_t size() const;
  std::vector<std::string> keys() const;

 private:
  using Table = std::map<std::string, PolicySnapshot>;

  /// The calling thread's copy of this registry's table, refreshed when
  /// the uid or epoch it was copied at is stale.
  const std::shared_ptr<const Table>& thread_table() const;

  /// Process-unique identity of this registry instance.
  const std::uint64_t uid_;
  /// Bumped (under the writer lock) by every install() and erase(); its
  /// own cache line, which readers share and only writers dirty.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  mutable std::shared_mutex mutex_;
  Table entries_;
  std::uint64_t next_version_ = 1;
};

}  // namespace verihvac::serve
