// Entailment between guard predicates, used by the GAR union fast paths
// (P1 => P2 collapses the three-way union of §3.1 to two terms) and by the
// privatizability proofs.
#include "panorama/predicate/predicate.h"

#include "panorama/obs/provenance.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/intern.h"
#include "panorama/support/memo_cache.h"

namespace panorama {

namespace {

/// Syntactic entailment of a clause: some hypothesis clause whose every atom
/// implies an atom of `goal`.
bool clauseSubsumed(const std::vector<Disjunct>& hyp, const Disjunct& goal) {
  for (const Disjunct& h : hyp) {
    bool all = true;
    for (const Atom& a : h.atoms) {
      bool covered = false;
      for (const Atom& b : goal.atoms) {
        if (atomImplies(a, b) == Truth::True) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// Table-free expression rendering for the span: affine forms as in the FM
/// spans, anything of higher degree by its arena id.
void appendExpr(std::string& out, const SymExpr& e) {
  if (auto f = AffineForm::fromExpr(e)) {
    appendAffine(out, *f);
  } else if (e.isPoisoned()) {
    out += "<?>";
  } else {
    out += "e#" + std::to_string(e.id());
  }
}

void appendVar(std::string& out, VarId v) {
  out += 'v';
  out += std::to_string(v.value);
}

void appendAtom(std::string& out, const Atom& a) {
  switch (a.kind()) {
    case Atom::Kind::LogVar:
      if (!a.logicalValue()) out += '!';
      appendVar(out, a.logical());
      return;
    case Atom::Kind::Forall:
      out += "forall ";
      appendVar(out, a.boundVar());
      out += " in [";
      appendExpr(out, a.forallLo());
      out += ", ";
      appendExpr(out, a.forallUp());
      out += "]: ";
      [[fallthrough]];
    case Atom::Kind::ArrayPred:
      if (!a.logicalValue()) out += '!';
      appendVar(out, a.logical());
      out += "(a" + std::to_string(a.predArray().value) + "[";
      appendExpr(out, a.expr());
      out += "], ";
      appendExpr(out, a.predRhs());
      out += ')';
      return;
    case Atom::Kind::Rel:
      break;
  }
  appendExpr(out, a.expr());
  switch (a.op()) {
    case RelOp::LE: out += " <= 0"; break;
    case RelOp::EQ: out += " == 0"; break;
    case RelOp::NE: out += " != 0"; break;
    case RelOp::RLT: out += " <. 0"; break;
    case RelOp::RLE: out += " <=. 0"; break;
    case RelOp::REQ: out += " ==. 0"; break;
    case RelOp::RNE: out += " !=. 0"; break;
  }
}

/// The CNF in the layout of `PredRef::str`, stopping with "..." once the
/// text passes `cap` characters.
void appendPred(std::string& out, const Pred& p, std::size_t cap) {
  if (p.isFalse()) {
    out += "false";
    return;
  }
  if (p.clauses().empty() && !p.isUnknown()) {
    out += "true";
    return;
  }
  bool firstClause = true;
  for (const Disjunct& d : p.clauses()) {
    if (!firstClause) out += " and ";
    firstClause = false;
    if (out.size() > cap) {
      out += "...";
      return;
    }
    if (d.atoms.size() > 1) out += '(';
    for (std::size_t i = 0; i < d.atoms.size(); ++i) {
      if (i) out += " or ";
      appendAtom(out, d.atoms[i]);
    }
    if (d.atoms.size() > 1) out += ')';
  }
  if (p.isUnknown()) out += firstClause ? "DELTA" : " and DELTA";
}

/// "hypothesis => goal", capped at 400 characters like the FM query spans.
std::string renderImplication(const Pred& hyp, const Pred& goal) {
  constexpr std::size_t kMaxChars = 400;
  std::string out;
  appendPred(out, hyp, kMaxChars);
  out += " => ";
  appendPred(out, goal, kMaxChars);
  return out;
}

}  // namespace

Truth Pred::implies(const Pred& other) const {
  // A false hypothesis implies anything; anything implies True.
  if (isFalse()) return Truth::True;
  if (other.isTrue()) return Truth::True;
  // The goal's Δ conjunct is an unknowable obligation.
  if (other.isUnknown()) return compare(*this, other) == 0 ? Truth::True : Truth::Unknown;

  // Memoized in the global query cache under interned predicate keys (exact
  // structural identity).
  QueryCache& cache = QueryCache::global();
  std::vector<std::uint64_t> key;
  if (cache.enabled()) {
    key = {QueryCache::PredImplies, predKey(*this), predKey(other)};
    if (auto hit = cache.lookup(key)) return *hit;
  }

  // Cold evaluation below: traced as a query span, and an Unknown verdict
  // is reported to the active provenance scope (cached verdicts skip both —
  // the notes are best-effort by design, see obs/provenance.h).
  obs::Span span("query.implies", "Pred::implies");
  if (span.active()) {
    // No SymbolTable is reachable here: both CNFs render table-free, with
    // variables as v<id> (as in the FM spans).
    span.arg("expr", renderImplication(*this, other));
    if (std::string ctx = obs::ProvenanceScope::currentLabel(); !ctx.empty())
      span.arg("ctx", std::move(ctx));
  }
  Truth verdict = [&] {
    // The hypothesis context available to FM: unit clauses of the CNF
    // over-approximation. (actual => CNF => goal suffices.)
    ConstraintSet context = unitConstraints();

    for (const Disjunct& goal : other.clauses()) {
      if (clauseSubsumed(clauses(), goal)) continue;
      // FM refutation: context ∧ ¬goal must be infeasible. ¬goal is the
      // conjunction of the negated atoms of the clause.
      ConstraintSet cs = context;
      bool representable = true;
      for (const Atom& a : goal.atoms) {
        if (!a.negated().addToConstraints(cs)) {
          representable = false;
          break;
        }
      }
      if (!representable) return Truth::Unknown;
      if (cs.contradictory() != Truth::True) return Truth::Unknown;
    }
    return Truth::True;
  }();
  if (span.active()) span.arg("verdict", toString(verdict));
  if (verdict == Truth::Unknown && obs::ProvenanceScope::active())
    obs::ProvenanceScope::note("implies",
                               "predicate implication undecided (clause not subsumed and FM "
                               "refutation inconclusive)");
  if (cache.enabled()) cache.store(std::move(key), verdict);
  return verdict;
}

}  // namespace panorama
