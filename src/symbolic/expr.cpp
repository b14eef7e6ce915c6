#include "panorama/symbolic/expr.h"

#include <algorithm>
#include <numeric>

#include "panorama/symbolic/arena.h"

namespace panorama {

namespace {

/// Checked int64 arithmetic: nullopt on overflow.
std::optional<std::int64_t> checkedAdd(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return std::nullopt;
  return r;
}

std::optional<std::int64_t> checkedMul(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) return std::nullopt;
  return r;
}

/// The monomial order, three-way: by degree, then lexicographically by
/// variable id. Negative, zero or positive.
int monomialCompare(const std::vector<VarId>& a, const std::vector<VarId>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
  return 0;
}

TermView viewOf(const Term& t, std::int64_t coef) { return {coef, t.vars.data(), t.vars.size()}; }

/// a + b, or a - b when `negate`: one linear merge of two canonical term
/// lists, interned once. The poison rules are those of a + (-b): a
/// coefficient sum that overflows, or an INT64_MIN coefficient in a negated
/// b, poisons the result.
ExprRef mergeTerms(std::span<const Term> a, std::span<const Term> b, bool negate) {
  TermBuffer out(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const int order = j == b.size()   ? -1
                      : i == a.size() ? 1
                                      : monomialCompare(a[i].vars, b[j].vars);
    if (order < 0) {
      out.push_back(viewOf(a[i], a[i].coef));
      ++i;
      continue;
    }
    std::int64_t cb = b[j].coef;
    if (negate) {
      if (cb == INT64_MIN) return ExprRef::poisoned();
      cb = -cb;
    }
    if (order > 0) {
      out.push_back(viewOf(b[j], cb));
    } else {
      auto sum = checkedAdd(a[i].coef, cb);
      if (!sum) return ExprRef::poisoned();
      if (*sum != 0) out.push_back(viewOf(a[i], *sum));
      ++i;
    }
    ++j;
  }
  return ExprArena::global().intern(out.view());
}

}  // namespace

bool monomialLess(const std::vector<VarId>& a, const std::vector<VarId>& b) {
  return monomialCompare(a, b) < 0;
}

ExprRef::ExprRef() {
  static const detail::ExprNode* zero =
      ExprArena::global().intern(std::span<const TermView>{}, /*poisoned=*/false).node_;
  node_ = zero;
}

ExprRef ExprRef::makeNormalized(std::vector<Term> terms) {
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return monomialLess(a.vars, b.vars); });
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (Term& t : terms) {
    if (!merged.empty() && merged.back().vars == t.vars) {
      auto sum = checkedAdd(merged.back().coef, t.coef);
      if (!sum) return poisoned();
      merged.back().coef = *sum;
    } else {
      merged.push_back(std::move(t));
    }
  }
  std::erase_if(merged, [](const Term& t) { return t.coef == 0; });
  return ExprArena::global().intern(merged);
}

ExprRef ExprRef::constant(std::int64_t c) {
  if (c == 0) return ExprRef();
  const TermView t{c, nullptr, 0};
  return ExprArena::global().intern({&t, 1});
}

ExprRef ExprRef::variable(VarId v) {
  const TermView t{1, &v, 1};
  return ExprArena::global().intern({&t, 1});
}

ExprRef ExprRef::poisoned() {
  static const detail::ExprNode* node =
      ExprArena::global().intern(std::span<const TermView>{}, /*poisoned=*/true).node_;
  return ExprRef(node);
}

std::optional<std::int64_t> ExprRef::constantValue() const {
  if (!isConstant()) return std::nullopt;
  return node_->terms.empty() ? 0 : node_->terms[0].coef;
}

int ExprRef::degree() const {
  int d = 0;
  for (const Term& t : node_->terms) d = std::max(d, t.degree());
  return d;
}

bool ExprRef::containsVar(VarId v) const {
  for (const Term& t : node_->terms)
    if (std::find(t.vars.begin(), t.vars.end(), v) != t.vars.end()) return true;
  return false;
}

void ExprRef::collectVars(std::vector<VarId>& out) const {
  for (const Term& t : node_->terms) out.insert(out.end(), t.vars.begin(), t.vars.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::int64_t ExprRef::affineCoeff(VarId v) const {
  for (const Term& t : node_->terms)
    if (t.vars.size() == 1 && t.vars[0] == v) return t.coef;
  return 0;
}

std::int64_t ExprRef::constantPart() const {
  for (const Term& t : node_->terms)
    if (t.vars.empty()) return t.coef;
  return 0;
}

ExprRef ExprRef::operator-() const { return mulConst(-1); }

ExprRef operator+(const ExprRef& a, const ExprRef& b) {
  if (a.isPoisoned() || b.isPoisoned()) return ExprRef::poisoned();
  if (a.isZero()) return b;
  if (b.isZero()) return a;
  return mergeTerms(a.terms(), b.terms(), /*negate=*/false);
}

ExprRef operator-(const ExprRef& a, const ExprRef& b) {
  if (a.isPoisoned() || b.isPoisoned()) return ExprRef::poisoned();
  if (b.isZero()) return a;
  return mergeTerms(a.terms(), b.terms(), /*negate=*/true);
}

ExprRef operator*(const ExprRef& a, const ExprRef& b) {
  if (a.isPoisoned() || b.isPoisoned()) return ExprRef::poisoned();
  std::vector<Term> terms;
  terms.reserve(a.terms().size() * b.terms().size());
  for (const Term& ta : a.terms()) {
    for (const Term& tb : b.terms()) {
      auto coef = checkedMul(ta.coef, tb.coef);
      if (!coef) return ExprRef::poisoned();
      Term t;
      t.coef = *coef;
      t.vars = ta.vars;
      t.vars.insert(t.vars.end(), tb.vars.begin(), tb.vars.end());
      std::sort(t.vars.begin(), t.vars.end());
      terms.push_back(std::move(t));
    }
  }
  return ExprRef::makeNormalized(std::move(terms));
}

ExprRef ExprRef::mulConst(std::int64_t k) const {
  if (node_->poisoned) return poisoned();
  if (k == 0) return ExprRef();
  if (k == 1) return *this;
  TermBuffer terms(node_->terms.size());
  for (const Term& t : node_->terms) {
    auto coef = checkedMul(t.coef, k);
    if (!coef) return poisoned();
    terms.push_back(viewOf(t, *coef));
  }
  // Scaling by a non-zero constant preserves order and uniqueness.
  return ExprArena::global().intern(terms.view());
}

ExprRef ExprRef::addConst(std::int64_t k) const { return *this + k; }

std::optional<ExprRef> ExprRef::divExact(std::int64_t k) const {
  if (node_->poisoned || k == 0) return std::nullopt;
  TermBuffer terms(node_->terms.size());
  for (const Term& t : node_->terms) {
    if (t.coef % k != 0) return std::nullopt;
    terms.push_back(viewOf(t, t.coef / k));
  }
  // Monomial keys are untouched, so the sorted invariant holds.
  return ExprArena::global().intern(terms.view());
}

std::int64_t ExprRef::coeffGcd() const {
  std::int64_t g = 0;
  for (const Term& t : node_->terms) g = std::gcd(g, t.coef);
  return g;
}

ExprRef ExprRef::substitute(VarId v, const ExprRef& replacement) const {
  if (node_->poisoned) return poisoned();
  if (!containsVar(v)) return *this;
  if (replacement.isPoisoned()) return poisoned();
  ExprRef result;
  for (const Term& t : node_->terms) {
    int power = static_cast<int>(std::count(t.vars.begin(), t.vars.end(), v));
    if (power == 0) {
      const TermView single = viewOf(t, t.coef);
      result = result + ExprArena::global().intern({&single, 1});
      continue;
    }
    Term rest;
    rest.coef = t.coef;
    for (VarId w : t.vars)
      if (w != v) rest.vars.push_back(w);
    const TermView restView = viewOf(rest, rest.coef);
    ExprRef piece = ExprArena::global().intern({&restView, 1});
    for (int p = 0; p < power; ++p) piece = piece * replacement;
    result = result + piece;
    if (result.isPoisoned()) return poisoned();
  }
  return result;
}

ExprRef ExprRef::substitute(const std::map<VarId, ExprRef>& replacements) const {
  // Simultaneous substitution: route every original variable through a fresh
  // copy of the term so replacements cannot feed each other.
  if (node_->poisoned) return poisoned();
  ExprRef result;
  for (const Term& t : node_->terms) {
    ExprRef piece = ExprRef::constant(t.coef);
    for (VarId w : t.vars) {
      auto it = replacements.find(w);
      piece = piece * (it != replacements.end() ? it->second : ExprRef::variable(w));
      if (piece.isPoisoned()) return poisoned();
    }
    result = result + piece;
    if (result.isPoisoned()) return poisoned();
  }
  return result;
}

std::optional<std::int64_t> ExprRef::evaluate(const Binding& binding) const {
  if (node_->poisoned) return std::nullopt;
  std::int64_t total = 0;
  for (const Term& t : node_->terms) {
    std::int64_t prod = t.coef;
    for (VarId v : t.vars) {
      auto it = binding.find(v);
      if (it == binding.end()) return std::nullopt;
      auto p = checkedMul(prod, it->second);
      if (!p) return std::nullopt;
      prod = *p;
    }
    auto s = checkedAdd(total, prod);
    if (!s) return std::nullopt;
    total = *s;
  }
  return total;
}

int ExprRef::compare(const ExprRef& a, const ExprRef& b) {
  if (a.node_ == b.node_) return 0;  // hash-consing: one node per value
  if (a.node_->poisoned != b.node_->poisoned) return a.node_->poisoned ? 1 : -1;
  const std::vector<Term>& ta = a.node_->terms;
  const std::vector<Term>& tb = b.node_->terms;
  if (ta.size() != tb.size()) return ta.size() < tb.size() ? -1 : 1;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (int c = monomialCompare(ta[i].vars, tb[i].vars)) return c;
    if (ta[i].coef != tb[i].coef) return ta[i].coef < tb[i].coef ? -1 : 1;
  }
  return 0;
}

std::string ExprRef::str(const SymbolTable& symtab) const {
  if (node_->poisoned) return "<?>";
  if (node_->terms.empty()) return "0";
  std::string out;
  bool first = true;
  // Print highest-degree terms first for readability (storage is ascending),
  // but keep the ascending variable order within a degree.
  std::vector<const Term*> order;
  order.reserve(node_->terms.size());
  for (const Term& t : node_->terms) order.push_back(&t);
  std::stable_sort(order.begin(), order.end(),
                   [](const Term* a, const Term* b) { return a->degree() > b->degree(); });
  for (const Term* tp : order) {
    const Term& t = *tp;
    std::int64_t c = t.coef;
    if (first) {
      if (c < 0) out += '-';
    } else {
      out += c < 0 ? " - " : " + ";
    }
    first = false;
    std::int64_t mag = c < 0 ? -c : c;
    bool needCoef = mag != 1 || t.vars.empty();
    if (needCoef) out += std::to_string(mag);
    for (std::size_t k = 0; k < t.vars.size(); ++k) {
      if (needCoef || k > 0) out += '*';
      out += symtab.name(t.vars[k]);
    }
  }
  return out;
}

ExprRef operator+(const ExprRef& a, std::int64_t c) {
  if (a.isPoisoned()) return ExprRef::poisoned();
  if (c == 0) return a;
  const Term k{c, {}};
  return mergeTerms(a.terms(), {&k, 1}, /*negate=*/false);
}

ExprRef operator-(const ExprRef& a, std::int64_t c) { return a + (-c); }

ExprRef operator-(std::int64_t c, const ExprRef& a) {
  if (a.isPoisoned()) return ExprRef::poisoned();
  if (c == 0) return -a;
  const Term k{c, {}};
  return mergeTerms({&k, 1}, a.terms(), /*negate=*/true);
}

}  // namespace panorama
