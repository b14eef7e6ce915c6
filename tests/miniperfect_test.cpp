// Cross-kernel integration: one program combining the corpus' canonical
// patterns (ARC2D-style filter, TRFD-style transform, OCEAN-style guarded
// pipeline, MDG-style counter idiom) in a single compilation unit. Checks
// that the patterns keep their classifications when they share a symbol
// universe, that the whole thing executes, and that the combined
// privatization survives the scrambled witness.
#include <gtest/gtest.h>

#include "panorama/analysis/analysis.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/interp/interpreter.h"

namespace panorama {
namespace {

constexpr const char* kMiniPerfect = R"(
      program mini
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      integer jlow, jup, kup, nrs, mrs, n, m
      jlow = 2
      jup = 40
      kup = 24
      nrs = 20
      mrs = 16
      n = 22
      m = 14
      call filter(jlow, jup, kup)
      call transf(nrs, mrs)
      call pipeln(n, m)
      end

      subroutine filter(jlow, jup, kup)
      integer jlow, jup, kup
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      real work(60)
      do 15 k = 1, kup
        do j = jlow, jup
          work(j) = field(j, k) * 0.25
        enddo
        do j = jlow, jup
          field(j, k) = work(j) + field(j, k)
        enddo
 15   continue
      end

      subroutine transf(nrs, mrs)
      integer nrs, mrs
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      real xrsiq(60)
      do 100 i = 1, nrs
        do j = 1, mrs
          xrsiq(j) = grid(i, j) * 2.0
        enddo
        do j = 1, mrs
          grid(i, j) = xrsiq(j) + 1.0
        enddo
 100  continue
      end

      subroutine pipeln(n, m)
      integer n, m
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      real cwork(60)
      real sc
      do 270 i = 1, n
        sc = i * 1.0
        call fwrite(cwork, sc, m)
        call fread(cwork, sc, m, i)
 270  continue
      end

      subroutine fwrite(b, sc, mm)
      real b(60)
      real sc
      integer mm
      if (sc .gt. 50.0) return
      do j = 1, mm
        b(j) = sc + j
      enddo
      end

      subroutine fread(b, sc, mm, ii)
      real b(60)
      real sc
      integer mm, ii
      real field(60, 60), grid(60, 60)
      common /mp1/ field, grid
      if (sc .gt. 50.0) return
      do j = 1, mm
        grid(ii, j) = grid(ii, j) + b(j)
      enddo
      end
)";

TEST(MiniPerfectTest, AllPatternsClassifyTogether) {
  DiagnosticEngine diags;
  auto p = parseProgram(kMiniPerfect, diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value()) << diags.str();
  Hsg hsg = buildHsg(*p, *sr, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.str();
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  analyzer.analyzeAll();
  LoopParallelizer lp(analyzer);

  struct Want {
    const char* routine;
    const char* array;
  };
  const Want wants[] = {
      {"filter", "work"}, {"transf", "xrsiq"}, {"pipeln", "cwork"}};
  for (const Want& w : wants) {
    const Stmt* loop = findOuterLoop(*p, w.routine, 0);
    ASSERT_NE(loop, nullptr) << w.routine;
    LoopAnalysis la = lp.analyzeLoop(*loop, *p->findProcedure(w.routine));
    bool priv = false;
    for (const ArrayPrivatization& ap : la.arrays)
      if (ap.name == w.array) priv = ap.privatizable;
    EXPECT_TRUE(priv) << w.routine << "/" << w.array << "\n"
                      << formatLoopAnalysis(la);
    EXPECT_EQ(la.classification, LoopClass::ParallelAfterPrivatization)
        << w.routine << "\n"
        << formatLoopAnalysis(la);
  }
}

TEST(MiniPerfectTest, ExecutesAndWitnesses) {
  DiagnosticEngine diags;
  auto p = parseProgram(kMiniPerfect, diags);
  ASSERT_TRUE(p.has_value()) << diags.str();
  auto sr = analyze(*p, diags);
  ASSERT_TRUE(sr.has_value()) << diags.str();
  Hsg hsg = buildHsg(*p, *sr, diags);
  SummaryAnalyzer analyzer(*p, *sr, hsg, {});
  analyzer.analyzeAll();
  LoopParallelizer lp(analyzer);

  Interpreter serial(*p, *sr);
  auto res = serial.run({});
  ASSERT_TRUE(res.ok) << res.error;

  // Scramble each of the three evaluated loops (independently) with its
  // privatized arrays; live-out memory must match.
  for (const char* routine : {"filter", "transf", "pipeln"}) {
    const Stmt* loop = findOuterLoop(*p, routine, 0);
    LoopAnalysis la = lp.analyzeLoop(*loop, *p->findProcedure(routine));
    std::vector<ArrayId> privatized;
    std::set<ArrayId> dead;
    for (const ArrayPrivatization& ap : la.arrays) {
      if (!ap.privatizable) continue;
      privatized.push_back(ap.array);
      if (!ap.needsCopyOut) dead.insert(ap.array);
    }
    ASSERT_FALSE(privatized.empty()) << routine;
    Interpreter scrambled(*p, *sr);
    Interpreter::Config cfg;
    cfg.privatizeLoop = loop;
    cfg.privatizedArrays = privatized;
    cfg.scrambleSeed = 99;
    auto sres = scrambled.run(cfg);
    ASSERT_TRUE(sres.ok) << routine << ": " << sres.error;
    for (const auto& [id, store] : serial.arrays()) {
      if (dead.count(id)) continue;
      auto it = scrambled.arrays().find(id);
      ASSERT_NE(it, scrambled.arrays().end());
      EXPECT_EQ(it->second, store) << routine << "/" << sr->arrays.name(id);
    }
  }
}

}  // namespace
}  // namespace panorama
