// The unified benchmark harness every bench in bench/ registers with.
//
// One bench = one BenchSpec: a name, warmup/measured repetition counts, and
// a run() callback returning a BenchResult — named metrics (each with a
// direction, a relative regression tolerance, and optional hard min/max
// contracts), free-form config strings, and an optional embedded CostProfile
// JSON. The harness turns that into:
//
//   * one common snapshot schema (schema_version, bench, git, config,
//     metrics, profile) written as BENCH_<name>.json;
//   * one JSONL history line per run appended to BENCH_history.jsonl;
//   * a regression gate: current metrics compared against a committed
//     baseline snapshot using the *code's* tolerances (baselines carry
//     values, not policy), hard contracts enforced regardless of baseline.
//
// Two entry points share the registry: each bench_<name> binary links
// standalone_main.cpp (runs the one bench it compiled in; first non-flag
// argument = snapshot output path, preserving the historical CLI), and
// tools/bench_runner links every bench and drives the suite + gate.
#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace panorama::bench {

enum class Direction {
  LowerIsBetter,   ///< regression = value above baseline * (1 + tolerance)
  HigherIsBetter,  ///< regression = value below baseline * (1 - tolerance)
  Exact,           ///< regression = any difference from the baseline
};

struct Metric {
  double value = 0;
  Direction direction = Direction::LowerIsBetter;
  /// Relative tolerance against the baseline value (1.0 = 100% headroom —
  /// wall-clock metrics on shared CI runners need generous slack).
  double relTolerance = 1.0;
  std::string unit;
  /// Hard contracts, enforced on every run independent of any baseline
  /// (e.g. the obs disabled-overhead <= 2% bound).
  std::optional<double> maxValue;
  std::optional<double> minValue;
  /// Ungated metrics are recorded in snapshots/history but never regression-
  /// checked (sub-microsecond micro-op timings drown in runner noise).
  bool gated = true;
};

struct BenchResult {
  bool ok = true;
  std::string failure;  ///< every fail() reason, "; "-joined; non-zero exit
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::pair<std::string, std::string>> config;
  std::string profileJson;  ///< rendered CostProfile ("" = none)

  Metric& add(std::string name, double value, Direction direction = Direction::LowerIsBetter,
              double relTolerance = 1.0, std::string unit = "");
  void addConfig(std::string key, std::string value);
  void fail(std::string why);
  const Metric* find(std::string_view name) const;
};

struct BenchSpec {
  std::string name;
  int repetitions = 1;  ///< measured runs; metrics aggregated across them
  int warmup = 0;       ///< discarded runs before measuring
  std::function<BenchResult()> run;
};

/// The process-wide bench registry (instantiable for tests).
class Registry {
 public:
  static Registry& global();
  void add(BenchSpec spec);
  const std::vector<BenchSpec>& all() const { return specs_; }
  const BenchSpec* find(std::string_view name) const;

 private:
  std::vector<BenchSpec> specs_;
};

/// File-scope static registration hook: each bench TU defines one.
struct Registration {
  explicit Registration(BenchSpec spec);
};

/// Runs warmup + repetitions and folds the per-rep results into one:
/// LowerIsBetter keeps the minimum, HigherIsBetter the maximum, Exact
/// requires identical values across reps (mismatch fails the bench).
BenchResult runBench(const BenchSpec& spec);

/// One run's snapshot record (schema_version 1). `pretty` inserts newlines
/// for the committed BENCH_*.json files; the history line is single-line.
std::string renderRecord(const BenchSpec& spec, const BenchResult& result,
                         const std::string& gitDescribe, long long timestampUnix, bool pretty);

struct RegressionIssue {
  std::string metric;
  std::string what;  ///< human-readable diagnosis
};

/// Compares `result` against a baseline snapshot (JSON text of a prior
/// renderRecord). Tolerances and directions come from `result` — the code is
/// the policy. Returns every violated gate; parse failures of the baseline
/// are reported as one issue so a corrupt baseline cannot silently pass.
std::vector<RegressionIssue> compareToBaseline(const BenchResult& result,
                                               const std::string& baselineJson);

/// `git describe --always --dirty` of the working directory ("unknown"
/// outside a git checkout); stamped into every snapshot record.
std::string gitDescribe();

/// What tools/bench_runner asks of one suite run.
struct SuiteOptions {
  std::string only;              ///< run just this bench ("" = every bench)
  bool check = false;            ///< gate each bench against its baseline
  bool updateBaselines = false;  ///< rewrite baselines from passing runs
  std::string baselineDir = ".";
  std::string outDir = ".";
  std::string historyPath;  ///< "" = <outDir>/BENCH_history.jsonl
  std::string git = "unknown";
};

/// Runs the selected benches of `registry`, writes each one's snapshot and
/// history line, and prints exactly one verdict line per bench: FAILED (its
/// own contract; to `err`), REGRESSION (with `check`, every violated gate on
/// the one line; to `err`) or ok (to `out`). A failed run is neither gated
/// nor written as a baseline. Returns 0 ok; 1 a bench failed or a write
/// failed; 2 the regression gate tripped.
int runSuite(const Registry& registry, const SuiteOptions& options, std::FILE* out,
             std::FILE* err);

/// Extra command-line arguments forwarded by the entry points (micro-op
/// benches pass --benchmark_* flags through to google-benchmark).
const std::vector<std::string>& extraArgs();
void setExtraArgs(std::vector<std::string> args);

/// Entry point for the per-bench standalone binaries (standalone_main.cpp):
/// runs every registered bench (one, in practice), prints metrics, writes a
/// snapshot to the first non-flag argument if given. Returns the exit code.
int standaloneMain(int argc, char** argv);

}  // namespace panorama::bench
