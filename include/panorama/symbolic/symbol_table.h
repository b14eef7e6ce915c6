// Interned symbolic variables. Every scalar name that can appear in a
// subscript, loop bound, or IF condition is interned once; expressions and
// predicates refer to variables by a small integer id.
//
// The table is thread-safe: the name index is split across shards, each
// with its own reader-writer lock, and the id-to-name store takes a
// separate lock, so concurrent procedure analyses can intern fresh loop
// indices without serializing on a single mutex. Moving or copying the
// table itself is NOT thread-safe (do it before analysis starts).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace panorama {

/// Strongly-typed id of an interned symbolic variable.
struct VarId {
  std::uint32_t value = UINT32_MAX;

  constexpr bool isValid() const { return value != UINT32_MAX; }
  friend constexpr bool operator==(VarId, VarId) = default;
  friend constexpr auto operator<=>(VarId, VarId) = default;
};

/// Maps variable names to ids and back. Names are case-insensitive (Fortran);
/// they are stored lower-cased.
class SymbolTable {
 public:
  SymbolTable();
  SymbolTable(const SymbolTable& other);
  SymbolTable(SymbolTable&& other) noexcept;
  SymbolTable& operator=(const SymbolTable& other);
  SymbolTable& operator=(SymbolTable&& other) noexcept;
  ~SymbolTable();

  /// Interns `name`, returning the existing id if already present.
  VarId intern(std::string_view name);

  /// Looks up `name` without interning.
  std::optional<VarId> lookup(std::string_view name) const;

  /// Name of an interned id. The reference stays valid for the table's
  /// lifetime (ids are append-only and the backing store never relocates).
  const std::string& name(VarId id) const;
  std::size_t size() const;

  /// Creates a fresh variable distinct from every interned name: the first
  /// absent one of `hint'`, `hint'1`, `hint'2`, ... Used for renamed loop
  /// indices (e.g. the i' of MOD_{<i}) and for formal-parameter renaming at
  /// call sites.
  VarId fresh(std::string_view hint);

 private:
  static std::string normalize(std::string_view name);

  static constexpr std::size_t kShards = 8;
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, std::uint32_t> index;
  };
  struct Rep {
    std::array<Shard, kShards> shards;
    mutable std::shared_mutex namesMutex;
    std::deque<std::string> names;  ///< deque: stable references across growth
    /// Per-hint suffix below which every `fresh` candidate is taken, so a
    /// call resumes probing there instead of at `hint'`.
    std::mutex freshMutex;
    std::unordered_map<std::string, std::uint32_t> nextFresh;
  };

  Shard& shardFor(const std::string& key) const;
  /// Interns `key` only if absent; second = false when it already existed.
  std::pair<VarId, bool> internIfAbsent(std::string key);

  std::unique_ptr<Rep> rep_;
};

}  // namespace panorama

template <>
struct std::hash<panorama::VarId> {
  std::size_t operator()(panorama::VarId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
