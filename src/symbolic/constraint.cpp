#include "panorama/symbolic/constraint.h"

#include <algorithm>

#include "panorama/obs/metrics.h"
#include "panorama/obs/provenance.h"
#include "panorama/obs/trace.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

bool ConstraintSet::addExprLE0(const SymExpr& e) {
  auto f = AffineForm::fromExpr(e);
  if (!f) return false;
  add({std::move(*f), ConstraintKind::LE0});
  return true;
}

bool ConstraintSet::addExprEQ0(const SymExpr& e) {
  auto f = AffineForm::fromExpr(e);
  if (!f) return false;
  add({std::move(*f), ConstraintKind::EQ0});
  return true;
}

bool ConstraintSet::addExprNE0(const SymExpr& e) {
  auto f = AffineForm::fromExpr(e);
  if (!f) return false;
  add({std::move(*f), ConstraintKind::NE0});
  return true;
}

namespace {

/// Canonical key of the variable part for syntactic clash detection.
bool sameVarPart(const AffineForm& a, const AffineForm& b) { return a.coeffs == b.coeffs; }

/// The whole constraint system, " && "-joined, capped so pathological sets
/// do not bloat the trace buffers.
std::string renderConstraints(const std::vector<LinearConstraint>& constraints) {
  constexpr std::size_t kMaxChars = 400;
  std::string out;
  for (const LinearConstraint& c : constraints) {
    if (!out.empty()) out += " && ";
    if (out.size() > kMaxChars) {
      out += "...";
      break;
    }
    appendAffine(out, c.form);
    switch (c.kind) {
      case ConstraintKind::LE0: out += " <= 0"; break;
      case ConstraintKind::EQ0: out += " = 0"; break;
      case ConstraintKind::NE0: out += " != 0"; break;
    }
    if (c.form.overflow) out += " [overflow]";
  }
  return out;
}

}  // namespace

Truth ConstraintSet::contradictory(const FmBudget& budget) const {
  return contradictoryWith(nullptr, budget);
}

Truth ConstraintSet::contradictoryWith(const LinearConstraint* extra,
                                       const FmBudget& budget) const {
  // Memoized across the whole run: the verdict is a pure function of the
  // exact constraint vector and the budget (both encoded in the key), so a
  // cached answer is always the answer a cold evaluation would produce.
  // `extra` is encoded as if appended to the set, so the set is copied only
  // on a miss.
  QueryCache& cache = QueryCache::global();
  std::vector<std::uint64_t> key;
  if (cache.enabled()) {
    key.reserve(3 + (constraints_.size() + 1) * 6);
    key.push_back(QueryCache::FmContradictory);
    key.push_back(budget.maxConstraints);
    key.push_back(budget.maxVariables);
    auto encode = [&key](const LinearConstraint& c) {
      key.push_back(static_cast<std::uint64_t>(c.kind));
      key.push_back(c.form.overflow ? 1 : 0);
      key.push_back(static_cast<std::uint64_t>(c.form.constant));
      key.push_back(c.form.coeffs.size());
      for (const auto& [v, coeff] : c.form.coeffs) {
        key.push_back(v.value);
        key.push_back(static_cast<std::uint64_t>(coeff));
      }
    };
    for (const LinearConstraint& c : constraints_) encode(c);
    if (extra) encode(*extra);
    if (auto hit = cache.lookup(key)) return *hit;
  }
  Truth verdict;
  if (extra) {
    ConstraintSet augmented = *this;
    augmented.add(*extra);
    verdict = augmented.contradictoryUncached(budget);
  } else {
    verdict = contradictoryUncached(budget);
  }
  if (cache.enabled()) cache.store(std::move(key), verdict);
  return verdict;
}

Truth ConstraintSet::contradictoryUncached(const FmBudget& budget) const {
  // Cold FM evaluations are traced and report Unknown verdicts into the
  // active provenance scope (memoized verdicts skip this path entirely).
  obs::Span span("query.fm", "ConstraintSet::contradictory");
  if (span.active()) {
    span.arg("constraints", std::to_string(constraints_.size()));
    span.arg("expr", renderConstraints(constraints_));
    if (std::string ctx = obs::ProvenanceScope::currentLabel(); !ctx.empty())
      span.arg("ctx", std::move(ctx));
  }
  Truth verdict = contradictoryCold(budget);
  if (span.active()) span.arg("verdict", toString(verdict));
  if (verdict == Truth::Unknown && obs::ProvenanceScope::active())
    obs::ProvenanceScope::note(
        "fm", "Fourier-Motzkin inconclusive on " + std::to_string(constraints_.size()) +
                  " constraints (budget " + std::to_string(budget.maxConstraints) + " constraints/" +
                  std::to_string(budget.maxVariables) + " variables, or non-affine data)");
  return verdict;
}

Truth ConstraintSet::contradictoryCold(const FmBudget& budget) const {
  std::vector<AffineForm> system;
  std::vector<AffineForm> disequalities;
  system.reserve(constraints_.size() * 2);
  for (const LinearConstraint& c : constraints_) {
    if (c.form.overflow) return Truth::Unknown;
    switch (c.kind) {
      case ConstraintKind::LE0:
        system.push_back(c.form);
        break;
      case ConstraintKind::EQ0:
        system.push_back(c.form);
        system.push_back(c.form.scaled(-1));
        break;
      case ConstraintKind::NE0:
        disequalities.push_back(c.form);
        break;
    }
  }
  // Disequality handling. Syntactic clash first (`form == 0 ∧ form != 0`),
  // then — for a small number of disequalities — the semantic version: the
  // inequality system *entails* form == 0 while a NE forbids it.
  for (const AffineForm& d : disequalities) {
    for (const LinearConstraint& c : constraints_) {
      if (c.kind == ConstraintKind::EQ0 && sameVarPart(c.form, d) &&
          c.form.constant == d.constant)
        return Truth::True;
    }
    if (d.coeffs.empty() && d.constant == 0) return Truth::True;  // 0 != 0
  }
  if (disequalities.size() <= 4) {
    for (const AffineForm& d : disequalities) {
      if (d.coeffs.empty()) continue;
      // system ⊨ d == 0 iff both (d <= -1) and (d >= 1) are infeasible.
      std::vector<AffineForm> lower = system;
      AffineForm dl = d;
      dl.constant += 1;  // d + 1 <= 0, i.e. d <= -1
      lower.push_back(std::move(dl));
      if (fourierMotzkinInfeasible(std::move(lower), budget) != Truth::True) continue;
      std::vector<AffineForm> upper = system;
      AffineForm du = d.scaled(-1);
      du.constant += 1;  // -d + 1 <= 0, i.e. d >= 1
      upper.push_back(std::move(du));
      if (fourierMotzkinInfeasible(std::move(upper), budget) == Truth::True)
        return Truth::True;  // pinned to the excluded value
    }
  }
  return fourierMotzkinInfeasible(std::move(system), budget);
}

Truth ConstraintSet::impliesLE0(const SymExpr& e, const FmBudget& budget) const {
  auto f = AffineForm::fromExpr(e);
  if (!f) return Truth::Unknown;
  // negation of (e <= 0) over the integers: e >= 1, i.e. -e + 1 <= 0
  LinearConstraint neg{f->scaled(-1), ConstraintKind::LE0};
  neg.form.constant += 1;
  Truth infeasible = contradictoryWith(&neg, budget);
  if (infeasible == Truth::True) return Truth::True;
  return Truth::Unknown;  // feasible negation does not refute entailment over all models
}

Truth ConstraintSet::impliesEQ0(const SymExpr& e, const FmBudget& budget) const {
  Truth a = impliesLE0(e, budget);
  if (a != Truth::True) return Truth::Unknown;
  Truth b = impliesLE0(-e, budget);
  if (b != Truth::True) return Truth::Unknown;
  return Truth::True;
}

}  // namespace panorama
