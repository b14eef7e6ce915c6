// The benchmark's own tests: generator determinism, the percentile
// reduction, the oracle (a deliberately broken verdict must be counted) and
// sample isolation.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench.h"
#include "panorama/analysis/driver.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/symbolic/arena.h"

namespace perfbench {
namespace {

using panorama::LoopClass;

TEST(Generator, SameSeedGivesByteIdenticalSources) {
  EXPECT_EQ(generateWide(7, kWideProcedures).text(), generateWide(7, kWideProcedures).text());
  EXPECT_NE(generateWide(7, kWideProcedures).text(), generateWide(8, kWideProcedures).text());
}

TEST(Generator, EditStreamIsAFunctionOfSeedAndIndex) {
  Project a = generateWide(3, 64);
  Project b = generateWide(3, 64);
  for (std::uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(applyEdit(a, 11, k), applyEdit(b, 11, k));
    EXPECT_EQ(a.text(), b.text());
  }
}

TEST(Generator, EditsKeepEveryExpectedVerdictAndLine) {
  Project p = generateWide(5, 64);
  const std::vector<ExpectedLoop> before = p.expected();
  bool sawEach[3] = {false, false, false};
  for (std::uint64_t k = 0; k < 40; ++k) {
    const std::string old = p.text();
    sawEach[static_cast<int>(applyEdit(p, 2, k))] = true;
    EXPECT_NE(p.text(), old) << "edit " << k << " changed nothing";
  }
  EXPECT_TRUE(sawEach[0] && sawEach[1] && sawEach[2]);
  const std::vector<ExpectedLoop> after = p.expected();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(before[k].line, after[k].line);
    EXPECT_EQ(before[k].classification, after[k].classification);
  }
}

TEST(Stats, NearestRankPercentileAndMedian) {
  std::vector<double> ten;
  for (int k = 10; k >= 1; --k) ten.push_back(k);  // unsorted on purpose
  EXPECT_EQ(percentile(ten, 90), 9);
  EXPECT_EQ(percentile(ten, 50), 5);
  EXPECT_EQ(percentile(ten, 100), 10);
  EXPECT_EQ(percentile(ten, 0), 1);
  EXPECT_EQ(median(ten), 5.5);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(percentile({4.5}, 90), 4.5);
  EXPECT_EQ(percentile({}, 90), 0);
  EXPECT_EQ(median({}), 0);
  // 100 samples: p90 is the 90th smallest, with 10 samples beyond it.
  std::vector<double> hundred;
  for (int k = 1; k <= 100; ++k) hundred.push_back(k);
  EXPECT_EQ(percentile(hundred, 90), 90);
}

/// Analyzes `source` the way the benchmark's batch request does.
std::vector<LoopVerdict> analyzeVerdicts(const std::string& source,
                                         std::vector<std::string>* reports = nullptr) {
  panorama::DiagnosticEngine diags;
  std::optional<panorama::Program> program = panorama::parseProgram(source, diags);
  EXPECT_TRUE(program.has_value()) << diags.str();
  panorama::ThreadPool pool(1);
  panorama::AnalysisOptions options;
  options.numThreads = 1;
  panorama::ProgramAnalysis pa = panorama::analyzeProgramUnit(std::move(*program), options, pool);
  EXPECT_TRUE(pa.ok) << pa.error;
  std::vector<LoopVerdict> out;
  for (const panorama::LoopAnalysis& la : pa.loops) {
    out.push_back(verdictOf(la));
    if (reports) reports->push_back(panorama::formatLoopAnalysis(la));
  }
  return out;
}

TEST(Oracle, TemplatesMatchAndABrokenVerdictIsCounted) {
  const Project p = generateWide(9, 32);
  std::vector<LoopVerdict> verdicts = analyzeVerdicts(p.text());
  const std::vector<ExpectedLoop> expected = p.expected();
  ASSERT_EQ(countTemplateErrors(expected, verdicts), 0u);

  std::vector<LoopVerdict> broken = verdicts;
  broken[0].classification = broken[0].classification == LoopClass::Serial
                                 ? LoopClass::Parallel
                                 : LoopClass::Serial;
  EXPECT_EQ(countTemplateErrors(expected, broken), 1u);

  broken = verdicts;
  for (LoopVerdict& v : broken)
    if (!v.privatizable.empty()) {
      v.privatizable.clear();
      break;
    }
  EXPECT_EQ(countTemplateErrors(expected, broken), 1u);

  broken = verdicts;
  broken.pop_back();
  EXPECT_EQ(countTemplateErrors(expected, broken), 1u);
}

TEST(Oracle, PerfectCorpusMatchesTablesAndABrokenVerdictIsCounted) {
  const auto& corpus = panorama::perfectCorpus();
  std::vector<std::vector<LoopVerdict>> perKernel;
  std::vector<int> lines;
  for (const panorama::CorpusLoop& cl : corpus) {
    perKernel.push_back(analyzeVerdicts(cl.source));
    panorama::DiagnosticEngine diags;
    std::optional<panorama::Program> program = panorama::parseProgram(cl.source, diags);
    const panorama::Stmt* loop = panorama::findOuterLoop(*program, cl.routine, cl.outerLoopIndex);
    ASSERT_NE(loop, nullptr) << cl.id;
    lines.push_back(loop->loc.line);
  }
  ASSERT_EQ(countTableErrors(perKernel, lines), 0u);

  for (LoopVerdict& v : perKernel[0])
    if (v.proc == corpus[0].routine && v.line == lines[0]) v.privatizable.clear();
  EXPECT_EQ(countTableErrors(perKernel, lines), 1u);
  lines[1] = -1;  // the evaluated loop is missing
  EXPECT_EQ(countTableErrors(perKernel, lines), 2u);
}

TEST(Oracle, ReportMismatchesAreCountedPerLoop) {
  const std::vector<std::uint64_t> ref = {1, 2, 3};
  EXPECT_EQ(countMismatches(ref, ref), 0u);
  EXPECT_EQ(countMismatches(ref, {1, 9, 3}), 1u);
  EXPECT_EQ(countMismatches(ref, {1, 2}), 1u);
  EXPECT_EQ(countMismatches(ref, {}), 3u);
}

TEST(Oracle, DaemonReportsSplitBackIntoLoops) {
  std::vector<std::string> reports;
  analyzeVerdicts(generateWide(4, 16).text(), &reports);
  ASSERT_FALSE(reports.empty());
  // Composed as the daemon's submit response and the batch driver print it.
  std::string composed = "edit.f: " + std::to_string(reports.size()) + " loop(s)\n\n";
  for (const std::string& r : reports) composed += r + "\n";
  EXPECT_EQ(splitLoopReports(composed), reports);
  EXPECT_TRUE(splitLoopReports("edit.f: 0 loop(s)\n\n").empty());
}

TEST(Isolation, ChildResultsComeBackAndFailuresAreReported) {
  const ChildResult good = runIsolated(
      [](ChildResult& r) {
        r.metrics["x"] = 1.5;
        r.hashes = {7, 8};
        r.samples = {0.25};
        r.blobs = {"text", std::string("a\0b", 3)};
      },
      30);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.metrics.at("x"), 1.5);
  EXPECT_EQ(good.hashes, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(good.samples, std::vector<double>{0.25});
  EXPECT_EQ(good.blobs[1], std::string("a\0b", 3));
  EXPECT_GT(good.peakRssMb, 0);

  const ChildResult threw =
      runIsolated([](ChildResult&) { throw std::runtime_error("boom"); }, 30);
  EXPECT_FALSE(threw.ok);
  EXPECT_EQ(threw.error, "boom");

  const ChildResult crashed = runIsolated([](ChildResult&) { std::abort(); }, 30);
  EXPECT_FALSE(crashed.ok);
}

TEST(Isolation, AnalysisInAChildLeavesTheParentCold) {
  const std::size_t before = panorama::ExprArena::global().stats().distinct;
  RunConfig wide{"wide", 3, 1, false};
  const ChildResult r = referenceRun(wide);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(panorama::ExprArena::global().stats().distinct, before);
}

TEST(Isolation, VerdictsDoNotDependOnWorkloadOrder) {
  const RunConfig perfect{"perfect", 1, 1, false};
  const RunConfig wide{"wide", 1, 1, false};
  const ChildResult p1 = referenceRun(perfect);
  const ChildResult w1 = referenceRun(wide);
  const ChildResult w2 = referenceRun(wide);
  const ChildResult p2 = referenceRun(perfect);
  for (const ChildResult* r : {&p1, &w1, &w2, &p2}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->metrics.at("oracle_errors"), 0);
  }
  EXPECT_EQ(p1.hashes, p2.hashes);
  EXPECT_EQ(w1.hashes, w2.hashes);
}

}  // namespace
}  // namespace perfbench
