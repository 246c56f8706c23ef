#pragma once
// Sharded, thread-safe, content-addressed cache with single-flight
// computation and optional LRU bounding.
//
// Keys are 64-bit content digests (see hash.hpp); values are immutable
// once published (handed out as shared_ptr<const V>). Every memoized
// compute is a content-seeded pure function of its key, so a hit is
// byte-identical to the miss that populated it: eviction can change
// latency and counters, never results.
//
//  * Single-flight get_or_compute: concurrent lookups of one missing key
//    coalesce onto one computation — the first caller computes, the rest
//    block and receive the published value as hits. With unbounded
//    capacity (0) the totals are therefore schedule-independent: a key's
//    first resolution is exactly one miss and every other lookup is a
//    hit (misses == unique keys).
//  * Bounded capacity: each shard keeps a recency list of its published
//    entries (front = most recently used); a hit splices its entry to
//    the front and an insert past `capacity` pops the back. Which keys
//    share a shard is fixed, but the order in which concurrent workers
//    touch them is not, so bounded hit/miss/eviction counts depend on
//    the schedule.
//
// A compute that throws unpublishes the in-flight placeholder and wakes
// the waiters, which retry (the first becomes the new computer); nothing
// is ever cached from a failed computation.

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cache/hash.hpp"
#include "common/error.hpp"

namespace qcgen::cache {

/// Lookup/eviction counters. Conservation invariants (checked by tests
/// and the bench validator): hits + misses == lookups, inserts <= misses
/// (a failed compute misses without inserting), evictions <= inserts.
struct Stats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  void merge(const Stats& other) noexcept {
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    evictions += other.evictions;
  }
  friend bool operator==(const Stats&, const Stats&) = default;
};

struct CacheOptions {
  /// Maximum resident entries per shard, evicted least-recently-used
  /// first; 0 = unbounded.
  std::size_t capacity = 0;
  std::size_t shards = 8;
};

template <typename V>
class Cache {
 public:
  explicit Cache(CacheOptions options)
      : options_(options), shards_(options.shards) {
    require(options_.shards >= 1, "Cache: shards >= 1");
  }

  /// Returns the cached value for `key`, computing it via `fn` on a
  /// miss. `fn` runs outside the shard lock; concurrent callers for the
  /// same key wait for the in-flight computation instead of duplicating
  /// it, and count as hits (exactly what a sequential re-lookup would).
  template <typename Fn>
  std::shared_ptr<const V> get_or_compute(std::uint64_t key, Fn&& fn) {
    Shard& shard = shard_for(key);
    std::unique_lock<std::mutex> lock(shard.mutex);
    for (;;) {
      auto it = shard.entries.find(key);
      if (it == shard.entries.end()) break;  // become the computer
      if (it->second.value != nullptr) {
        ++shard.stats.lookups;
        ++shard.stats.hits;
        shard.recency.splice(shard.recency.begin(), shard.recency,
                             it->second.recency);
        return it->second.value;
      }
      // In flight on another thread: single-flight wait, then re-check
      // (the computation may have failed and unpublished itself, or its
      // value may already have been evicted).
      shard.cv.wait(lock, [&] {
        const auto found = shard.entries.find(key);
        return found == shard.entries.end() || found->second.value != nullptr;
      });
    }
    ++shard.stats.lookups;
    ++shard.stats.misses;
    shard.entries.emplace(key, Entry{});  // in-flight placeholder
    lock.unlock();

    std::shared_ptr<const V> value;
    try {
      value = std::make_shared<const V>(fn());
    } catch (...) {
      lock.lock();
      shard.entries.erase(key);
      shard.cv.notify_all();
      throw;
    }

    lock.lock();
    Entry& entry = shard.entries[key];
    entry.value = value;
    entry.recency = shard.recency.insert(shard.recency.begin(), key);
    ++shard.stats.inserts;
    while (options_.capacity > 0 && shard.recency.size() > options_.capacity) {
      shard.entries.erase(shard.recency.back());
      shard.recency.pop_back();
      ++shard.stats.evictions;
    }
    shard.cv.notify_all();
    return value;
  }

  /// Resident value for `key`, or nullptr. Does not touch recency or the
  /// stats — an observation aid for tests, not a lookup path.
  std::shared_ptr<const V> peek(std::uint64_t key) const {
    const Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    return it == shard.entries.end() ? nullptr : it->second.value;
  }

  /// Counters aggregated over shards.
  Stats stats() const {
    Stats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total.merge(shard.stats);
    }
    return total;
  }

  /// Resident (published) entries across shards.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.recency.size();
    }
    return total;
  }

 private:
  struct Entry {
    std::shared_ptr<const V> value;  ///< null while the compute is in flight
    std::list<std::uint64_t>::iterator recency;  ///< valid once published
  };
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> entries;
    /// Published keys, most recently used first (excludes in-flight).
    std::list<std::uint64_t> recency;
    Stats stats;
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    return const_cast<Shard&>(std::as_const(*this).shard_for(key));
  }
  const Shard& shard_for(std::uint64_t key) const noexcept {
    // Re-mix before sharding so shard choice is independent of any
    // structure in the key's low bits.
    std::uint64_t state = key;
    return shards_[splitmix64(state) % shards_.size()];
  }

  CacheOptions options_;
  std::vector<Shard> shards_;
};

}  // namespace qcgen::cache
