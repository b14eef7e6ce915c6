// Atom key-tuple interning. Since the hash-consed arena refactor the
// expression and predicate keys are the arena ids themselves (see
// symbolic/arena.h for the authoritative key layout); only atoms still go
// through a tuple interner, and their key words are O(1) handle ids rather
// than deep structural encodings. Keys are allocated from exact tuples
// (never from raw hashes), so distinct atoms always receive distinct keys.
#include "panorama/predicate/intern.h"

#include <array>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "panorama/support/memo_cache.h"

namespace panorama {

namespace {

/// Sharded exact-tuple interner for atom keys.
class TupleInterner {
 public:
  std::uint64_t keyOf(const std::array<std::uint64_t, 10>& words) {
    const std::size_t s = WordsHash{}(words) % kShards;
    Shard& shard = shards_[s];
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      if (auto it = shard.map.find(words); it != shard.map.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    if (auto it = shard.map.find(words); it != shard.map.end()) return it->second;
    std::uint64_t key = (shard.next++ << kShardBits) | static_cast<std::uint64_t>(s);
    shard.map.emplace(words, key);
    return key;
  }

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1u << kShardBits;
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::array<std::uint64_t, 10>, std::uint64_t, WordsHash> map;
    std::uint64_t next = 0;
  };
  std::array<Shard, kShards> shards_;
};

TupleInterner& atomTable() {
  static TupleInterner t;
  return t;
}

}  // namespace

std::uint64_t atomKey(const Atom& a) {
  return atomTable().keyOf({static_cast<std::uint64_t>(a.kind()),
                            static_cast<std::uint64_t>(a.op()), a.expr().id(),
                            a.logical().value, a.logicalValue() ? 1u : 0u, a.predArray().value,
                            a.boundVar().value, a.predRhs().id(), a.forallLo().id(),
                            a.forallUp().id()});
}

std::uint64_t predKey(const PredRef& p) { return p.id(); }

}  // namespace panorama
