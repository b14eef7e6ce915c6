// The unified bench harness: per-repetition aggregation, hard min/max
// contracts, the snapshot record schema, and the baseline regression gate
// (including the tolerance and direction semantics the gate is built on and
// the corrupt-baseline-cannot-pass rule), and the suite driver's one verdict
// line per bench.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness.h"
#include "panorama/support/json.h"

namespace panorama::bench {
namespace {

using support::JsonValue;

BenchSpec specOf(std::string name, int repetitions, std::function<BenchResult()> run) {
  BenchSpec spec;
  spec.name = std::move(name);
  spec.repetitions = repetitions;
  spec.run = std::move(run);
  return spec;
}

TEST(RunBenchTest, AggregatesRepsByDirection) {
  int rep = 0;
  BenchSpec spec = specOf("agg", 3, [&rep] {
    static const double walls[] = {30.0, 10.0, 20.0};
    static const double rates[] = {5.0, 9.0, 7.0};
    BenchResult r;
    r.add("wall_ms", walls[rep], Direction::LowerIsBetter, 1.0, "ms");
    r.add("rate", rates[rep], Direction::HigherIsBetter);
    r.add("loops", 42, Direction::Exact);
    ++rep;
    return r;
  });
  BenchResult result = runBench(spec);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.find("wall_ms")->value, 10.0);  // min across reps
  EXPECT_EQ(result.find("rate")->value, 9.0);      // max across reps
  EXPECT_EQ(result.find("loops")->value, 42.0);
}

TEST(RunBenchTest, ExactMetricMustAgreeAcrossReps) {
  int rep = 0;
  BenchSpec spec = specOf("exact", 2, [&rep] {
    BenchResult r;
    r.add("loops", rep == 0 ? 42 : 41, Direction::Exact);
    ++rep;
    return r;
  });
  BenchResult result = runBench(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("loops"), std::string::npos) << result.failure;
}

TEST(RunBenchTest, WarmupRepsAreDiscarded) {
  int calls = 0;
  BenchSpec spec = specOf("warm", 1, [&calls] {
    BenchResult r;
    r.add("call", ++calls, Direction::Exact);
    return r;
  });
  spec.warmup = 2;
  BenchResult result = runBench(spec);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.find("call")->value, 3.0);  // two warmups ran first
}

TEST(RunBenchTest, HardMaxContractTripsWithoutAnyBaseline) {
  BenchSpec spec = specOf("contract", 1, [] {
    BenchResult r;
    Metric& m = r.add("overhead_pct", 3.5, Direction::LowerIsBetter, 10.0, "%");
    m.maxValue = 2.0;  // the obs <= 2% style bound
    return r;
  });
  BenchResult result = runBench(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("overhead_pct"), std::string::npos) << result.failure;
}

TEST(RenderRecordTest, SnapshotParsesWithTheUnifiedSchema) {
  BenchSpec spec = specOf("schema", 2, nullptr);
  spec.warmup = 1;
  BenchResult result;
  Metric& wall = result.add("wall_ms", 12.5, Direction::LowerIsBetter, 3.0, "ms");
  wall.maxValue = 100.0;
  result.add("loops", 17, Direction::Exact);
  Metric& speedup = result.add("speedup", 2.5, Direction::HigherIsBetter);
  speedup.gated = false;
  result.addConfig("corpus", "perfect");
  // Pretty-rendered, as renderCostProfileJson produces it: the history line
  // must flatten it back to one JSONL line.
  result.profileJson = "{\n  \"schema_version\": 1\n}\n";

  std::string pretty = renderRecord(spec, result, "abc123", 1754000000, /*pretty=*/true);
  std::string line = renderRecord(spec, result, "abc123", 1754000000, /*pretty=*/false);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // history stays one line

  std::string error;
  std::optional<JsonValue> v = JsonValue::parse(pretty, &error);
  ASSERT_TRUE(v.has_value()) << error << "\n" << pretty;
  EXPECT_EQ(v->find("schema_version")->asNumber(), 1);
  EXPECT_EQ(v->find("bench")->asString(), "schema");
  EXPECT_EQ(v->find("git")->asString(), "abc123");
  EXPECT_EQ(v->find("timestamp_unix")->asNumber(), 1754000000);
  EXPECT_EQ(v->find("repetitions")->asNumber(), 2);
  EXPECT_EQ(v->find("warmup")->asNumber(), 1);
  EXPECT_TRUE(v->find("ok")->asBool());
  EXPECT_EQ(v->find("config")->find("corpus")->asString(), "perfect");

  const JsonValue* metrics = v->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* wallJson = metrics->find("wall_ms");
  ASSERT_NE(wallJson, nullptr);
  EXPECT_EQ(wallJson->find("value")->asNumber(), 12.5);
  EXPECT_EQ(wallJson->find("unit")->asString(), "ms");
  EXPECT_EQ(wallJson->find("direction")->asString(), "lower");
  EXPECT_EQ(wallJson->find("rel_tolerance")->asNumber(), 3.0);
  EXPECT_EQ(wallJson->find("max")->asNumber(), 100.0);
  EXPECT_TRUE(wallJson->find("gated")->asBool());
  EXPECT_EQ(metrics->find("loops")->find("direction")->asString(), "exact");
  EXPECT_FALSE(metrics->find("speedup")->find("gated")->asBool());

  const JsonValue* profile = v->find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->find("schema_version")->asNumber(), 1);

  // The single-line history record carries the same content.
  std::optional<JsonValue> lv = JsonValue::parse(line, &error);
  ASSERT_TRUE(lv.has_value()) << error;
  EXPECT_EQ(lv->find("metrics")->find("wall_ms")->find("value")->asNumber(), 12.5);
}

TEST(RenderRecordTest, FailureIsRecorded) {
  BenchSpec spec = specOf("boom", 1, nullptr);
  BenchResult result;
  result.fail("fingerprints diverged");
  std::string json = renderRecord(spec, result, "abc", 0, /*pretty=*/true);
  std::string error;
  std::optional<JsonValue> v = JsonValue::parse(json, &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_FALSE(v->find("ok")->asBool());
  EXPECT_EQ(v->find("failure")->asString(), "fingerprints diverged");
}

TEST(RenderRecordTest, EveryFailureReasonIsKept) {
  // A --check run that violates several contracts must report them all, not
  // just the first one evaluated.
  BenchResult result;
  result.fail("speedup 3.1x below the 5.0x contract");
  result.fail("tiered-mode loop reports diverged");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.failure,
            "speedup 3.1x below the 5.0x contract; tiered-mode loop reports diverged");
}

// --- the regression gate ---------------------------------------------------

std::string baselineFor(const BenchResult& result) {
  BenchSpec spec = specOf("gate", 1, nullptr);
  return renderRecord(spec, result, "base", 0, /*pretty=*/true);
}

TEST(BaselineGateTest, WithinToleranceIsClean) {
  BenchResult base;
  base.add("wall_ms", 10.0, Direction::LowerIsBetter, 0.5, "ms");
  base.add("loops", 42, Direction::Exact);
  std::string baseline = baselineFor(base);

  BenchResult current;
  current.add("wall_ms", 14.0, Direction::LowerIsBetter, 0.5, "ms");  // < 10 * 1.5
  current.add("loops", 42, Direction::Exact);
  EXPECT_TRUE(compareToBaseline(current, baseline).empty());
}

TEST(BaselineGateTest, LowerIsBetterTripsAboveTolerance) {
  BenchResult base;
  base.add("wall_ms", 10.0, Direction::LowerIsBetter, 0.5, "ms");
  std::string baseline = baselineFor(base);

  BenchResult current;
  current.add("wall_ms", 15.1, Direction::LowerIsBetter, 0.5, "ms");
  std::vector<RegressionIssue> issues = compareToBaseline(current, baseline);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].metric, "wall_ms");
}

TEST(BaselineGateTest, HigherIsBetterTripsBelowTolerance) {
  BenchResult base;
  base.add("speedup", 4.0, Direction::HigherIsBetter, 0.25);
  std::string baseline = baselineFor(base);

  BenchResult fine;
  fine.add("speedup", 3.2, Direction::HigherIsBetter, 0.25);  // >= 4 * 0.75
  EXPECT_TRUE(compareToBaseline(fine, baseline).empty());

  BenchResult slow;
  slow.add("speedup", 2.9, Direction::HigherIsBetter, 0.25);
  EXPECT_EQ(compareToBaseline(slow, baseline).size(), 1u);
}

TEST(BaselineGateTest, ExactMetricTripsOnAnyDrift) {
  BenchResult base;
  base.add("loops", 42, Direction::Exact);
  std::string baseline = baselineFor(base);

  BenchResult drifted;
  drifted.add("loops", 43, Direction::Exact);
  std::vector<RegressionIssue> issues = compareToBaseline(drifted, baseline);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].metric, "loops");
}

TEST(BaselineGateTest, UngatedMetricsNeverTrip) {
  BenchResult base;
  Metric& m = base.add("micro_ns", 100.0, Direction::LowerIsBetter, 0.1, "ns");
  m.gated = false;
  std::string baseline = baselineFor(base);

  BenchResult current;
  Metric& c = current.add("micro_ns", 900.0, Direction::LowerIsBetter, 0.1, "ns");
  c.gated = false;
  EXPECT_TRUE(compareToBaseline(current, baseline).empty());
}

TEST(BaselineGateTest, MetricMissingFromBaselineIsSkipped) {
  BenchResult base;
  base.add("wall_ms", 10.0, Direction::LowerIsBetter, 0.5, "ms");
  std::string baseline = baselineFor(base);

  // New metrics gate only once a baseline that records them is committed.
  BenchResult current;
  current.add("wall_ms", 10.0, Direction::LowerIsBetter, 0.5, "ms");
  current.add("brand_new", 7.0, Direction::Exact);
  EXPECT_TRUE(compareToBaseline(current, baseline).empty());
}

TEST(BaselineGateTest, CorruptBaselineCannotSilentlyPass) {
  BenchResult current;
  current.add("wall_ms", 10.0, Direction::LowerIsBetter);
  EXPECT_FALSE(compareToBaseline(current, "not json{").empty());
  // Old-schema snapshots (no "metrics" object) must also refuse to gate.
  EXPECT_FALSE(compareToBaseline(current, "{\"schema_version\": 0}").empty());
}

// --- the suite driver -------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string drain(std::FILE* f) {
  std::string text;
  std::rewind(f);
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Output lines that start with "<bench>: " (the verdict and baseline
/// lines; the "=== <bench> ===" header does not match).
std::vector<std::string> linesOf(const std::string& text, const std::string& bench) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);)
    if (line.rfind(bench + ": ", 0) == 0) lines.push_back(line);
  return lines;
}

struct SuiteRun {
  int exitCode = 0;
  std::string out;
  std::string err;
};

SuiteRun runSuiteCaptured(const Registry& registry, const SuiteOptions& options) {
  std::FILE* out = std::tmpfile();
  std::FILE* err = std::tmpfile();
  SuiteRun run;
  run.exitCode = runSuite(registry, options, out, err);
  run.out = drain(out);
  run.err = drain(err);
  std::remove((options.outDir + "/BENCH_history.jsonl").c_str());
  return run;
}

SuiteOptions suiteOptionsIn(const std::string& dir) {
  SuiteOptions options;
  options.check = true;
  options.baselineDir = dir;
  options.outDir = dir;
  return options;
}

TEST(RunSuiteTest, FailedBenchGetsOneVerdictAndKeepsItsBaseline) {
  const std::string dir = testing::TempDir();
  Registry registry;
  registry.add(specOf("suite_broken", 1, [] {
    BenchResult r;
    r.add("ms", 1.0);
    r.fail("fingerprints diverged");
    return r;
  }));
  BenchResult committed;
  committed.add("ms", 1.0);
  const std::string baselinePath = dir + "/BENCH_suite_broken.json";
  const std::string baseline = baselineFor(committed);
  std::ofstream(baselinePath, std::ios::binary | std::ios::trunc) << baseline;

  SuiteOptions options = suiteOptionsIn(dir);
  options.updateBaselines = true;
  SuiteRun run = runSuiteCaptured(registry, options);

  EXPECT_EQ(run.exitCode, 1);
  const std::vector<std::string> lines = linesOf(run.out + run.err, "suite_broken");
  ASSERT_EQ(lines.size(), 1u) << run.out << run.err;
  EXPECT_NE(lines[0].find("FAILED: fingerprints diverged"), std::string::npos) << lines[0];
  EXPECT_EQ(slurp(baselinePath), baseline) << "a failed run must not become the baseline";
  std::remove(baselinePath.c_str());
}

TEST(RunSuiteTest, RegressionsShareOneVerdictLine) {
  const std::string dir = testing::TempDir();
  Registry registry;
  registry.add(specOf("suite_slow", 1, [] {
    BenchResult r;
    r.add("a_ms", 10.0, Direction::LowerIsBetter, 0.1);
    r.add("b_ms", 10.0, Direction::LowerIsBetter, 0.1);
    return r;
  }));
  BenchResult committed;
  committed.add("a_ms", 1.0, Direction::LowerIsBetter, 0.1);
  committed.add("b_ms", 1.0, Direction::LowerIsBetter, 0.1);
  const std::string baselinePath = dir + "/BENCH_suite_slow.json";
  std::ofstream(baselinePath, std::ios::binary | std::ios::trunc) << baselineFor(committed);

  SuiteRun run = runSuiteCaptured(registry, suiteOptionsIn(dir));

  EXPECT_EQ(run.exitCode, 2);
  const std::vector<std::string> lines = linesOf(run.out + run.err, "suite_slow");
  ASSERT_EQ(lines.size(), 1u) << run.out << run.err;
  EXPECT_NE(lines[0].find("REGRESSION: [a_ms]"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("; [b_ms]"), std::string::npos) << lines[0];
  std::remove(baselinePath.c_str());
}

TEST(RunSuiteTest, PassingBenchIsOkAndUpdatesItsBaseline) {
  const std::string dir = testing::TempDir();
  Registry registry;
  registry.add(specOf("suite_fine", 1, [] {
    BenchResult r;
    r.add("ms", 1.0);
    return r;
  }));
  const std::string baselinePath = dir + "/BENCH_suite_fine.json";
  std::remove(baselinePath.c_str());

  SuiteOptions options = suiteOptionsIn(dir);
  options.updateBaselines = true;
  SuiteRun run = runSuiteCaptured(registry, options);

  EXPECT_EQ(run.exitCode, 0) << run.err;
  const std::vector<std::string> lines = linesOf(run.out + run.err, "suite_fine");
  ASSERT_EQ(lines.size(), 2u) << run.out << run.err;
  EXPECT_NE(lines[0].find("ok (no baseline at"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("baseline -> "), std::string::npos) << lines[1];
  EXPECT_FALSE(slurp(baselinePath).empty());
  std::remove(baselinePath.c_str());
}

TEST(RegistryTest, FindLocatesRegisteredSpecs) {
  Registry registry;
  registry.add(specOf("one", 1, nullptr));
  registry.add(specOf("two", 1, nullptr));
  ASSERT_NE(registry.find("two"), nullptr);
  EXPECT_EQ(registry.find("two")->name, "two");
  EXPECT_EQ(registry.find("three"), nullptr);

  // The global registry carries every bench TU linked into this test (none),
  // but must at least be callable.
  (void)Registry::global().all();
}

}  // namespace
}  // namespace panorama::bench
