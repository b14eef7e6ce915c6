// Bounded Fourier-Motzkin elimination with integer tightening.
//
// Input: a system of affine forms, each meaning `form <= 0`. Variables are
// eliminated one at a time; a lower bound (-b*x + g <= 0) combines with an
// upper bound (a*x + f <= 0) into a*g + b*f <= 0. Elimination order greedily
// picks the variable with the fewest resulting combinations. All combined
// coefficients are computed in 128-bit and rejected on overflow, and every
// derived inequality is tightened by its coefficient gcd, which catches many
// integer-only contradictions (e.g. 1 <= 2x <= 1).
//
// Between elimination steps the system is kept canonically ordered and
// duplicate-free, so the derivation is a function of the system's content,
// not of the order its rows arrived in.
#include <algorithm>
#include <optional>

#include "panorama/symbolic/constraint.h"

namespace panorama {

namespace {

bool addInto(std::int64_t& acc, std::int64_t v) {
  return !__builtin_add_overflow(acc, v, &acc);
}

bool mulChecked(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

/// a*g_form + b*f_form with overflow checking; false on overflow.
///
/// lower: -b*x + g <= 0 (b>0), upper: a*x + f <= 0 (a>0), x = `skip`.
/// Result: a*g + b*f <= 0, written into `out` (reused across pairs). This
/// fuses lower.scaled(a) + upper.scaled(b) + tightenLE allocation-free; the
/// overflow outcome and the produced form are identical to the composed
/// operations — every product and pairwise sum either chain computes is
/// computed and range-checked here, no more and no fewer (x's coefficients
/// are excluded from both, exactly as extractVar-before-scaled excluded
/// them).
bool combineInto(const AffineForm& lower, std::int64_t b, const AffineForm& upper, std::int64_t a,
                 VarId skip, AffineForm& out) {
  out.coeffs.clear();
  out.overflow = false;
  const auto& lc = lower.coeffs;
  const auto& uc = upper.coeffs;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < lc.size() || j < uc.size()) {
    if (j == uc.size() || (i < lc.size() && lc[i].first < uc[j].first)) {
      if (lc[i].first == skip) {
        ++i;
        continue;
      }
      std::int64_t c;
      if (!mulChecked(lc[i].second, a, c)) return false;
      out.coeffs.emplace_back(lc[i].first, c);
      ++i;
    } else if (i == lc.size() || uc[j].first < lc[i].first) {
      if (uc[j].first == skip) {
        ++j;
        continue;
      }
      std::int64_t c;
      if (!mulChecked(uc[j].second, b, c)) return false;
      out.coeffs.emplace_back(uc[j].first, c);
      ++j;
    } else {
      if (lc[i].first == skip) {
        ++i;
        ++j;
        continue;
      }
      std::int64_t cl;
      std::int64_t cu;
      if (!mulChecked(lc[i].second, a, cl)) return false;
      if (!mulChecked(uc[j].second, b, cu)) return false;
      if (!addInto(cl, cu)) return false;
      if (cl != 0) out.coeffs.emplace_back(lc[i].first, cl);
      ++i;
      ++j;
    }
  }
  std::int64_t constant;
  std::int64_t uconst;
  if (!mulChecked(lower.constant, a, constant)) return false;
  if (!mulChecked(upper.constant, b, uconst)) return false;
  if (!addInto(constant, uconst)) return false;
  out.constant = constant;
  out.tightenLE();
  return true;
}

bool constantInfeasible(const AffineForm& f) { return f.coeffs.empty() && f.constant > 0; }

/// Sort by (coeffs, constant) and remove exact duplicates.
void canonOrder(std::vector<AffineForm>& system) {
  std::sort(system.begin(), system.end(), [](const AffineForm& a, const AffineForm& b) {
    if (a.coeffs != b.coeffs) return a.coeffs < b.coeffs;
    return a.constant < b.constant;
  });
  system.erase(std::unique(system.begin(), system.end()), system.end());
}

/// Entry screen: tighten, answer on overflow/violated constants, drop
/// constant rows, then sort + dedup. nullopt means "run the elimination".
std::optional<Truth> screen(std::vector<AffineForm>& system) {
  for (AffineForm& f : system) {
    if (f.overflow) return Truth::Unknown;
    f.tightenLE();
    if (constantInfeasible(f)) return Truth::True;
  }
  std::erase_if(system, [](const AffineForm& f) { return f.coeffs.empty(); });
  canonOrder(system);
  return std::nullopt;
}

/// The number of distinct variables of `system`, counted by sorted insertion
/// (systems are small, so this beats collect + sort + unique).
std::size_t countVars(const std::vector<AffineForm>& system) {
  std::vector<VarId> vars;
  vars.reserve(8);
  for (const AffineForm& f : system)
    for (const auto& [v, c] : f.coeffs) {
      auto it = std::lower_bound(vars.begin(), vars.end(), v);
      if (it == vars.end() || *it != v) vars.insert(it, v);
    }
  return vars.size();
}

struct StepResult {
  std::optional<Truth> verdict;  ///< set when the step decided the system
  std::vector<AffineForm> next;  ///< otherwise: the reduced system, canonical
};

/// One greedy variable elimination with the budget/overflow checks.
StepResult eliminateOne(std::vector<AffineForm> system, const FmBudget& budget) {
  if (system.size() > budget.maxConstraints) return {Truth::Unknown, {}};

  // Pick the variable minimizing (#lower bounds) * (#upper bounds); ties go
  // to the smallest variable id. One pass over the coefficient lists —
  // systems here are a handful of forms over a handful of variables, so the
  // linear scan of `stats` beats building and sorting a var list.
  struct VarStat {
    VarId v;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  std::vector<VarStat> stats;
  stats.reserve(8);
  for (const AffineForm& f : system)
    for (const auto& [v, c] : f.coeffs) {
      auto it = std::find_if(stats.begin(), stats.end(),
                             [v](const VarStat& s) { return s.v == v; });
      if (it == stats.end()) it = stats.insert(stats.end(), VarStat{v});
      if (c > 0)
        ++it->hi;
      else
        ++it->lo;
    }

  VarId best = stats.front().v;
  std::size_t bestCost = SIZE_MAX;
  for (const VarStat& s : stats) {
    const std::size_t cost = s.lo * s.hi;
    if (cost < bestCost || (cost == bestCost && s.v < best)) {
      bestCost = cost;
      best = s.v;
    }
  }

  std::vector<AffineForm> lowers;
  std::vector<AffineForm> uppers;
  std::vector<AffineForm> rest;
  std::vector<std::int64_t> lowerCoef;
  std::vector<std::int64_t> upperCoef;
  rest.reserve(system.size());
  for (AffineForm& f : system) {
    std::int64_t c = f.coeffOf(best);
    if (c > 0) {
      upperCoef.push_back(c);
      uppers.push_back(std::move(f));
    } else if (c < 0) {
      lowerCoef.push_back(-c);
      lowers.push_back(std::move(f));
    } else {
      rest.push_back(std::move(f));
    }
  }
  if (lowers.size() * uppers.size() + rest.size() > budget.maxConstraints)
    return {Truth::Unknown, {}};

  AffineForm derived;
  for (std::size_t i = 0; i < lowers.size(); ++i) {
    for (std::size_t j = 0; j < uppers.size(); ++j) {
      if (!combineInto(lowers[i], lowerCoef[i], uppers[j], upperCoef[j], best, derived))
        return {Truth::Unknown, {}};
      if (constantInfeasible(derived)) return {Truth::True, {}};
      if (!derived.coeffs.empty()) rest.push_back(derived);
    }
  }

  canonOrder(rest);
  return {std::nullopt, std::move(rest)};
}

}  // namespace

Truth fourierMotzkinInfeasible(std::vector<AffineForm> system, const FmBudget& budget) {
  if (auto verdict = screen(system)) return *verdict;
  if (countVars(system) > budget.maxVariables) return Truth::Unknown;

  // Invariant: every row of a screened system mentions a variable, so an
  // empty system means every combination closed without a contradiction.
  while (!system.empty()) {
    StepResult step = eliminateOne(std::move(system), budget);
    if (step.verdict) return *step.verdict;
    system = std::move(step.next);
  }
  return Truth::False;
}

}  // namespace panorama
