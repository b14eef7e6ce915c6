// Bounded, sharded memo tables for the analyzer's pure symbolic queries.
//
// The analyzer answers the same Fourier-Motzkin feasibility checks,
// atom-pair queries, predicate-implication tests and predicate
// simplifications over and over as guards flow through the propagation.
// Each answer is a pure function of an exact query encoding — a word vector
// built from interned expression / atom / predicate keys plus every budget
// the answer depends on — so one MemoCache template memoizes them all: the
// verdict cache (QueryCache, below) and the Pred::simplify memo.
//
// Properties the parallel driver, the session and their tests rely on:
//   * Exact keys. Entries are stored under the full word vector (compared,
//     not just hashed), so two different queries can never alias: a cached
//     answer is always the answer a cold evaluation would produce,
//     regardless of query order or thread interleaving. Because every key
//     carries the budgets its answer depends on, an entry stays correct
//     across analysis-option changes; nothing ever needs invalidating.
//   * Bounded. Capacity is split evenly across 16 shards; a full shard
//     evicts its oldest entry (FIFO). Eviction only forgets — the next
//     lookup recomputes and re-stores the identical answer.
//   * Sharded locking. A key's shard is chosen by its hash; each shard has
//     its own mutex, so concurrent analysis threads rarely contend.
//   * Observable. Hit/miss/eviction/entry counters are surfaced through the
//     report layer, the daemon's status op and the benches.
//
// Capacity 0 disables a cache: every lookup returns nullopt (uncounted) and
// nothing is stored — the cold-query reference path.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "panorama/support/diagnostics.h"

namespace panorama {

/// FNV-1a over a word sequence: the hash of every in-memory memo key (and
/// of the atom-key interner's tuples).
struct WordsHash {
  std::size_t operator()(std::span<const std::uint64_t> words) const {
    std::size_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t w : words) {
      h ^= static_cast<std::size_t>(w);
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

/// Counters of one memo table (`entries` is the resident count).
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;

  double hitRate() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A bounded, sharded, exact-key memo table (see the file comment).
template <class Value>
class MemoCache {
 public:
  using Key = std::vector<std::uint64_t>;
  using Stats = MemoStats;
  static constexpr std::size_t kDefaultCapacity = 1u << 18;
  static constexpr std::size_t kShards = 16;  ///< shard = WordsHash(key) % kShards

  explicit MemoCache(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  /// Sets the entry capacity; 0 disables the cache. A no-op when the
  /// capacity is unchanged, so warm entries and counters survive; a new
  /// capacity drops both.
  void configure(std::size_t capacity) {
    if (capacity_.load(std::memory_order_acquire) == capacity) return;
    capacity_.store(capacity, std::memory_order_release);
    clear();
  }
  std::size_t capacity() const { return capacity_.load(std::memory_order_acquire); }
  bool enabled() const { return capacity() > 0; }

  /// The memoized value for `key`, or nullopt (also counts the miss).
  std::optional<Value> lookup(const Key& key) {
    if (!enabled()) return std::nullopt;
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      ++shard.hits;
      return it->second;
    }
    ++shard.misses;
    return std::nullopt;
  }

  /// Stores a value, evicting the shard's oldest entries when full.
  void store(Key key, Value value) {
    const std::size_t cap = capacity();
    if (cap == 0) return;
    const std::size_t perShard = std::max<std::size_t>(cap / kShards, 1);
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.contains(key)) return;  // a racing thread stored the same value
    while (shard.map.size() >= perShard) {
      shard.map.erase(shard.map.find(*shard.order.front()));
      shard.order.pop_front();
      ++shard.evictions;
    }
    shard.order.push_back(&shard.map.emplace(std::move(key), std::move(value)).first->first);
  }

  Stats stats() const {
    Stats out;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.evictions += shard.evictions;
      out.entries += shard.map.size();
    }
    return out;
  }

  /// Drops entries and counters but keeps the capacity.
  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.clear();
      shard.order.clear();
      shard.hits = shard.misses = shard.evictions = 0;
    }
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, Value, WordsHash> map;
    /// Insertion order for FIFO eviction; points at map's node-stable keys.
    std::deque<const Key*> order;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shardFor(const Key& key) { return shards_[WordsHash{}(key) % kShards]; }

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> capacity_;
};

/// The verdict memo behind ConstraintSet::contradictory, atomsContradict
/// and Pred::implies. Every key starts with its query family's Tag, so
/// families can never collide.
class QueryCache : public MemoCache<Truth> {
 public:
  using MemoCache::MemoCache;

  enum Tag : std::uint64_t {
    FmContradictory = 1,  ///< ConstraintSet::contradictory
    AtomsContradict = 2,  ///< atomsContradict (also serves atomImplies)
    PredImplies = 3,      ///< Pred::implies
  };

  /// The process-wide cache every analysis thread shares. Its capacity
  /// (AnalysisOptions::cacheCapacity) bounds the simplify memo too.
  static QueryCache& global();
};

/// One-line rendering of the global cache counters for reports and benches.
std::string formatQueryCacheStats(const QueryCache::Stats& stats);

}  // namespace panorama
