#include "panorama/symbolic/arena.h"

#include <algorithm>
#include <mutex>

namespace panorama {

namespace {

std::size_t hashTerms(std::span<const TermView> terms, bool poisoned) {
  std::size_t h = poisoned ? 0x9e3779b9u : 0;
  for (const TermView& t : terms) {
    h = h * 131 + static_cast<std::size_t>(t.coef);
    for (std::size_t k = 0; k < t.size; ++k) h = h * 131 + t.vars[k].value;
  }
  return h;
}

bool sameTerms(const std::vector<Term>& stored, std::span<const TermView> terms) {
  if (stored.size() != terms.size()) return false;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Term& s = stored[i];
    const TermView& t = terms[i];
    if (s.coef != t.coef || s.vars.size() != t.size ||
        !std::equal(s.vars.begin(), s.vars.end(), t.vars))
      return false;
  }
  return true;
}

std::size_t footprint(const detail::ExprNode& n) {
  std::size_t b = sizeof(detail::ExprNode) + n.terms.capacity() * sizeof(Term);
  for (const Term& t : n.terms) b += t.vars.capacity() * sizeof(VarId);
  return b;
}

}  // namespace

ExprArena& ExprArena::global() {
  static ExprArena arena;
  return arena;
}

ExprRef ExprArena::intern(std::span<const TermView> terms, bool poisoned) {
  const std::size_t h = hashTerms(terms, poisoned);
  const std::size_t s = h % kShards;
  Shard& shard = shards_[s];
  auto find = [&]() -> const detail::ExprNode* {
    auto it = shard.index.find(h);
    if (it == shard.index.end()) return nullptr;
    for (const detail::ExprNode* n : it->second)
      if (n->poisoned == poisoned && sameTerms(n->terms, terms)) return n;
    return nullptr;
  };
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    if (const detail::ExprNode* n = find()) return ExprRef(n);
  }
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (const detail::ExprNode* n = find()) return ExprRef(n);
  detail::ExprNode& node = shard.nodes.emplace_back();
  node.terms.reserve(terms.size());
  for (const TermView& t : terms)
    node.terms.push_back(Term{t.coef, std::vector<VarId>(t.vars, t.vars + t.size)});
  node.poisoned = poisoned;
  node.hash = h;
  node.id = (shard.next++ << kShardBits) | static_cast<std::uint64_t>(s);
  shard.index[h].push_back(&node);
  shard.bytes += footprint(node);
  return ExprRef(&node);
}

ExprRef ExprArena::intern(const std::vector<Term>& terms, bool poisoned) {
  TermBuffer views(terms.size());
  for (const Term& t : terms) views.push_back({t.coef, t.vars.data(), t.vars.size()});
  return intern(views.view(), poisoned);
}

ExprArena::Stats ExprArena::stats() const {
  Stats out;
  bool first = true;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    const std::size_t n = shard.nodes.size();
    out.distinct += n;
    out.bytes += shard.bytes;
    out.minShard = first ? n : std::min(out.minShard, n);
    out.maxShard = first ? n : std::max(out.maxShard, n);
    first = false;
  }
  return out;
}

}  // namespace panorama
