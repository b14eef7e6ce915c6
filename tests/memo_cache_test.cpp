// The one bounded memo template (support/memo_cache.h) behind the verdict
// cache and the simplify memo: exact keys (hash collisions never alias),
// FIFO eviction at the per-shard bound, capacity 0 disabling both store and
// lookup, an unchanged capacity keeping warm entries, and concurrent
// store/lookup returning only stored values.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "panorama/support/memo_cache.h"

namespace panorama {
namespace {

using Key = std::vector<std::uint64_t>;

/// `n` distinct two-word keys that all route to the same shard.
std::vector<Key> sameShardKeys(std::size_t n) {
  std::vector<Key> keys;
  const std::size_t shard = WordsHash{}(Key{QueryCache::FmContradictory, 0}) % QueryCache::kShards;
  for (std::uint64_t seed = 0; keys.size() < n; ++seed) {
    Key key{QueryCache::FmContradictory, seed};
    if (WordsHash{}(key) % QueryCache::kShards == shard) keys.push_back(std::move(key));
  }
  return keys;
}

TEST(MemoCacheTest, ExactKeysNeverAliasOnHashCollision) {
  // FNV-1a folds each word in with an xor, so {a, b} and {c, d} collide
  // when d = H({a}) ^ b ^ H({c}).
  const std::uint64_t ha = WordsHash{}(Key{QueryCache::AtomsContradict});
  const std::uint64_t hc = WordsHash{}(Key{QueryCache::PredImplies});
  const Key a{QueryCache::AtomsContradict, 7};
  const Key b{QueryCache::PredImplies, ha ^ 7 ^ hc};
  ASSERT_EQ(WordsHash{}(a), WordsHash{}(b));
  ASSERT_NE(a, b);

  QueryCache cache;
  cache.store(a, Truth::True);
  EXPECT_EQ(cache.lookup(b), std::nullopt);
  cache.store(b, Truth::False);
  EXPECT_EQ(cache.lookup(a), Truth::True);
  EXPECT_EQ(cache.lookup(b), Truth::False);
  // A key's prefix is a different key too.
  EXPECT_EQ(cache.lookup({QueryCache::AtomsContradict}), std::nullopt);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(MemoCacheEvictionTest, LiveOnlyShardFallsBackToFifo) {
  // Every entry is live (entries never go stale), so a full shard evicts
  // in insertion order.
  QueryCache cache(64);  // 16 shards -> 4 entries per shard
  const std::vector<Key> k = sameShardKeys(6);
  for (std::size_t i = 0; i < 4; ++i) cache.store(k[i], Truth::True);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.store(k[4], Truth::False);  // full shard: the oldest entry (k0) goes
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(k[0]), std::nullopt);
  EXPECT_EQ(cache.lookup(k[1]), Truth::True);

  cache.store(k[1], Truth::True);   // already resident: no eviction, no reorder
  cache.store(k[5], Truth::False);  // k1 is next in insertion order
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.lookup(k[1]), std::nullopt);
  EXPECT_EQ(cache.lookup(k[2]), Truth::True);
  EXPECT_EQ(cache.lookup(k[5]), Truth::False);
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(MemoCacheTest, CapacityZeroDisablesStoreAndLookup) {
  QueryCache cache;
  const Key key{QueryCache::FmContradictory, 1, 2};
  cache.store(key, Truth::True);
  ASSERT_EQ(cache.lookup(key), Truth::True);

  cache.configure(0);  // a new capacity drops entries and counters
  EXPECT_FALSE(cache.enabled());
  cache.store(key, Truth::True);
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);  // disabled lookups are not counted
}

TEST(MemoCacheTest, UnchangedCapacityKeepsEntriesAndCounters) {
  QueryCache cache;
  const Key key{QueryCache::PredImplies, 3};
  cache.store(key, Truth::Unknown);
  ASSERT_EQ(cache.lookup(key), Truth::Unknown);

  cache.configure(QueryCache::kDefaultCapacity);
  EXPECT_EQ(cache.lookup(key), Truth::Unknown);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(MemoCacheTest, ConcurrentStoreAndLookupReturnOnlyStoredValues) {
  // A small capacity keeps every shard evicting while four threads store
  // and look up overlapping key ranges; a hit must always be the value
  // stored under exactly that key.
  MemoCache<std::uint64_t> cache(64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 512;
  constexpr int kRounds = 8;
  auto valueOf = [](std::uint64_t k) { return k * 0x9e3779b97f4a7c15ull; };
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          const std::uint64_t k = (i * (t + 1) + round) % kKeys;
          if (auto hit = cache.lookup({k, k + 1})) {
            if (*hit != valueOf(k)) ++wrong[t];
          } else {
            cache.store({k, k + 1}, valueOf(k));
          }
        }
    });
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  const MemoCache<std::uint64_t>::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, std::uint64_t{kThreads} * kRounds * kKeys);
  EXPECT_LE(stats.entries, 64u);
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace panorama
