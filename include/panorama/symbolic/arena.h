// The hash-consing arena behind ExprRef: every distinct expression value is
// stored once, in a sharded table, and addressed by a stable node pointer
// thereafter. This replaces the PR-1 ExprInterner (which re-hashed whole
// term lists on every query): the structural hash is now computed exactly
// once, when a value is first interned, and equality of handles is a pointer
// compare.
//
// Key layout (the one authoritative statement): a node's 64-bit id is
//
//     id = (perShardSequence << kShardBits) | shardIndex
//
// so the *shard index lives in the low bits* and shards allocate ids
// independently without coordination. The shard of a value is chosen by its
// structural hash (hash % kShards). Ids are dense per shard, never reused,
// and id equality <=> structural equality — memo caches key verdicts by id
// with no collision risk.
//
// Lifetime: the arena is a process-wide singleton and is append-only; nodes
// are never mutated or freed, so handles and `terms()` references stay valid
// for the life of the process. Analyzer runs are short-lived batch jobs
// (the driver analyzes a corpus and exits), so retiring dead nodes is not
// worth the synchronization it would cost the parallel driver.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "panorama/symbolic/expr.h"

namespace panorama {

/// A borrowed term: a coefficient and a sorted variable multiset that points
/// into storage the caller keeps alive across the intern call (usually an
/// existing node's term list, or a stack value). Arithmetic builds its result
/// as a list of these, so a hit — nearly every call — copies no term.
struct TermView {
  std::int64_t coef;
  const VarId* vars;
  std::size_t size;
};

/// Fixed-capacity list of borrowed terms: inline for the common short
/// expression, one heap block past kInline terms.
class TermBuffer {
 public:
  explicit TermBuffer(std::size_t capacity) {
    if (capacity > kInline) heap_.resize(capacity);
  }
  void push_back(const TermView& t) { data()[size_++] = t; }
  std::span<const TermView> view() const {
    return {heap_.empty() ? inline_.data() : heap_.data(), size_};
  }

 private:
  static constexpr std::size_t kInline = 16;
  TermView* data() { return heap_.empty() ? inline_.data() : heap_.data(); }

  std::array<TermView, kInline> inline_;
  std::vector<TermView> heap_;
  std::size_t size_ = 0;
};

class ExprArena {
 public:
  /// The process-wide arena every analysis thread shares.
  static ExprArena& global();

  /// Interns a *canonical* term list (sorted by `monomialLess`, merged,
  /// zero-coefficient free; poisoned values carry no terms) and returns the
  /// unique handle. The terms are copied into the arena only on a miss.
  ExprRef intern(std::span<const TermView> terms, bool poisoned = false);
  /// The same, for an owned canonical term list (snapshot loading, products).
  ExprRef intern(const std::vector<Term>& terms, bool poisoned = false);

  /// Arena occupancy for `--stats`: distinct values, approximate resident
  /// bytes, and the least/most populated shard (balance check).
  struct Stats {
    std::size_t distinct = 0;
    std::size_t bytes = 0;
    std::size_t minShard = 0;
    std::size_t maxShard = 0;
  };
  Stats stats() const;

 private:
  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShards = 1u << kShardBits;

  struct Shard {
    mutable std::shared_mutex mutex;
    std::deque<detail::ExprNode> nodes;  // deque: stable node addresses
    // Buckets by full structural hash; the short chains resolve by deep
    // compare exactly once, at interning.
    std::unordered_map<std::size_t, std::vector<const detail::ExprNode*>> index;
    std::uint64_t next = 0;
    std::size_t bytes = 0;
  };

  std::array<Shard, kShards> shards_;
};

}  // namespace panorama
