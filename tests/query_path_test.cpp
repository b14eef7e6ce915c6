// Verdict cases for the emptiness query path: every `contradictory` query is
// a QueryCache lookup followed by the classic Fourier–Motzkin test. The
// suite pins the verdicts on small edge-case systems (constants, overflow
// poison, disequalities, gcd tightening, budget) and the byte-identity of
// corpus reports with the memo on or off at 1/4/8 threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "panorama/analysis/driver.h"
#include "panorama/support/memo_cache.h"
#include "panorama/symbolic/affine.h"
#include "panorama/symbolic/constraint.h"
#include "panorama/symbolic/expr.h"

namespace panorama {
namespace {

class AbsDomTest : public ::testing::Test {
 protected:
  void TearDown() override { QueryCache::global().configure(QueryCache::kDefaultCapacity); }

  SymbolTable tab;
  VarId x = tab.intern("x");
  VarId y = tab.intern("y");
  SymExpr X = SymExpr::variable(x);
  SymExpr Y = SymExpr::variable(y);

  static LinearConstraint le0(const SymExpr& e) {
    return {*AffineForm::fromExpr(e), ConstraintKind::LE0};
  }
  static LinearConstraint eq0(const SymExpr& e) {
    return {*AffineForm::fromExpr(e), ConstraintKind::EQ0};
  }
  static LinearConstraint ne0(const SymExpr& e) {
    return {*AffineForm::fromExpr(e), ConstraintKind::NE0};
  }

  static Truth contradictory(const std::vector<LinearConstraint>& rows,
                             const FmBudget& budget = {}) {
    ConstraintSet cs;
    for (const LinearConstraint& c : rows) cs.add(c);
    return cs.contradictory(budget);
  }
};

TEST_F(AbsDomTest, DischargesFeasibleSystemWithVerifiedWitness) {
  // 1 <= x <= 7 is satisfiable.
  EXPECT_EQ(contradictory({le0(-X + 1), le0(X - 7)}), Truth::False);
}

TEST_F(AbsDomTest, DischargesConstantSystemsAsClassicScreenWould) {
  AffineForm five;
  five.constant = 5;
  AffineForm minusOne;
  minusOne.constant = -1;
  AffineForm zero;
  // 5 <= 0 is violated.
  EXPECT_EQ(contradictory({{five, ConstraintKind::LE0}}), Truth::True);
  // -1 <= 0 holds.
  EXPECT_EQ(contradictory({{minusOne, ConstraintKind::LE0}}), Truth::False);
  // 0 != 0 is violated.
  EXPECT_EQ(contradictory({{zero, ConstraintKind::NE0}}), Truth::True);
}

TEST_F(AbsDomTest, MirrorsOverflowPoisonAsUnknown) {
  AffineForm poisoned = *AffineForm::fromExpr(X);
  poisoned.overflow = true;
  EXPECT_EQ(contradictory({{poisoned, ConstraintKind::LE0}}), Truth::Unknown);
}

TEST_F(AbsDomTest, DisequalityWitnessAvoidsExcludedValue) {
  // x >= 1 and y != 0 hold at x = 1, y = 1.
  EXPECT_EQ(contradictory({le0(-X + 1), ne0(Y)}), Truth::False);
}

TEST_F(AbsDomTest, GcdCongruenceScreenDeclinesToFm) {
  // 2x == 1 has no integer solution; FM's gcd tightening proves it.
  EXPECT_EQ(contradictory({eq0(X.mulConst(2) - 1)}), Truth::True);
  EXPECT_EQ(fourierMotzkinInfeasible({*AffineForm::fromExpr(X.mulConst(2) - 1),
                                      AffineForm::fromExpr(X.mulConst(2) - 1)->scaled(-1)},
                                     FmBudget{}),
            Truth::True);
}

TEST_F(AbsDomTest, OversizedSystemsDecline) {
  FmBudget tiny;
  tiny.maxConstraints = 1;
  EXPECT_EQ(contradictory({le0(X - 5), le0(-X + 1)}, tiny), Truth::Unknown);
}

/// Corpus loop reports are byte-identical with the query memo on or off, at
/// 1, 4 and 8 threads.
TEST_F(AbsDomTest, CorpusReportsAreByteIdenticalAcrossModesAndThreadCounts) {
  auto fingerprint = [](bool memo, int threads) {
    AnalysisOptions options;
    options.numThreads = threads;
    options.cacheCapacity = memo ? QueryCache::kDefaultCapacity : 0;
    std::string out;
    for (const CorpusRoutineResult& loop : analyzeCorpusParallel(options).loops) {
      out += loop.kernelId;
      out += '|';
      out += loop.report;
      out += loop.provenanceSummary;
      out += '\n';
    }
    return out;
  };
  const std::string want = fingerprint(false, 1);
  ASSERT_FALSE(want.empty());
  for (int threads : {1, 4, 8}) {
    EXPECT_EQ(fingerprint(true, threads), want) << "memo, threads=" << threads;
    EXPECT_EQ(fingerprint(false, threads), want) << "no memo, threads=" << threads;
  }
}

}  // namespace
}  // namespace panorama
