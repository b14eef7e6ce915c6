// Shared declarations of the benchmark of record (see perfbench/README.md).
//
// The benchmark drives the library only through its public entry points.
// Every analysis runs in a forked child of a coordinator process that never
// analyzes anything itself, so no sample inherits arena, query-cache or
// FM-prefix-cache state from an earlier sample or workload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "panorama/analysis/analysis.h"

namespace perfbench {

// ------------------------------------------------------------ generator

/// The procedure templates of the `wide` workload: five bodies and the leaf
/// subroutine CallsLeaf calls. Each has a known verdict for every loop.
enum class Template : std::uint8_t {
  WorkArray,   ///< outer loop parallel after privatizing a work array
  GuardedIf,   ///< the same, with the write and the read under one IF condition
  Symbolic,    ///< work array over symbolic bounds lo..hi
  CallsLeaf,   ///< the work array is written by a CALL to a leaf subroutine
  Recurrence,  ///< a loop-carried flow dependence: serial
  Leaf,        ///< the callee of CallsLeaf (one inner parallel loop)
};

/// One generated procedure. Its text is a pure function of these fields, so
/// an edit changes a field and regenerates the procedure.
struct ProcSpec {
  std::string name;
  Template kind = Template::WorkArray;
  int coef = 2;      ///< the constant a single-loop edit changes
  int revision = 0;  ///< cited by the header comment a comment-only edit changes
  std::string callee;  ///< CallsLeaf: the leaf subroutine it calls
};

/// Expected verdict of one loop, keyed by procedure and DO line.
struct ExpectedLoop {
  std::string proc;
  int line = 0;
  panorama::LoopClass classification = panorama::LoopClass::Serial;
  std::vector<std::string> privatizable;  ///< sorted array names
};

/// A generated program: its procedures in file order.
struct Project {
  std::vector<ProcSpec> procs;
  std::string text() const;
  /// Every loop's expected verdict, in file order.
  std::vector<ExpectedLoop> expected() const;
};

/// A `wide` project of `procedures` routines (leaves included) drawn from the
/// templates by `seed`.
Project generateWide(std::uint64_t seed, int procedures);

enum class EditKind : std::uint8_t { LoopConstant, LeafCallee, CommentOnly };

/// Applies the `index`-th edit of the stream seeded by `seed` to `project`
/// and returns which kind it was. The stream is a pure function of
/// (seed, index, project): a single-loop constant change, a leaf-callee
/// change (invalidates its callers) or a comment-only change (dirty cone 0).
EditKind applyEdit(Project& project, std::uint64_t seed, std::uint64_t index);

/// SplitMix64: the benchmark's only source of pseudo-randomness.
std::uint64_t mix(std::uint64_t x);

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// ------------------------------------------------------------ oracle

/// What the oracle needs of one analyzed loop.
struct LoopVerdict {
  std::string proc;
  int line = 0;
  panorama::LoopClass classification = panorama::LoopClass::Serial;
  std::vector<std::string> privatizable;  ///< sorted array names
};

LoopVerdict verdictOf(const panorama::LoopAnalysis& la);

/// FNV-1a of a report string (timed samples ship hashes, not reports).
std::uint64_t hashReport(const std::string& report);

/// Table 1/2 check of the perfect corpus: for every CorpusLoop k, the loop
/// of kernel k at (routine, lines[k]) — the line of its evaluated outer DO —
/// must list every Table 2 "yes" array as privatizable and no "no" array.
/// Returns the number of corpus loops whose verdict is wrong or missing.
std::size_t countTableErrors(const std::vector<std::vector<LoopVerdict>>& perKernel,
                             const std::vector<int>& lines);

/// Template check of a wide project: every expected loop must be present
/// with its classification and privatizable set, and nothing else analyzed.
std::size_t countTemplateErrors(const std::vector<ExpectedLoop>& expected,
                                const std::vector<LoopVerdict>& verdicts);

/// Number of positions at which two per-loop report sequences differ, plus
/// the length difference.
std::size_t countMismatches(const std::vector<std::uint64_t>& reference,
                            const std::vector<std::uint64_t>& sample);

/// Splits a daemon submit report — `name: N loop(s)\n\n` followed by each
/// loop's report and a blank line, as the batch driver prints it — into the
/// per-loop reports.
std::vector<std::string> splitLoopReports(const std::string& composed);

// ------------------------------------------------------------ isolation

/// The result a forked child ships back to the coordinator.
struct ChildResult {
  bool ok = false;
  std::string error;
  std::map<std::string, double> metrics;
  std::vector<std::uint64_t> hashes;  ///< per-loop report hashes
  std::vector<double> samples;        ///< per-request timings (edit round trips)
  std::vector<std::string> blobs;     ///< free-form payloads (edit oracle texts)
  double peakRssMb = 0;               ///< the child's ru_maxrss
};

/// Runs `body` in a forked child and returns what it filled in. A child
/// that crashes, exits non-zero or outlives `timeoutSeconds` comes back with
/// ok == false.
ChildResult runIsolated(const std::function<void(ChildResult&)>& body, unsigned timeoutSeconds);

// ------------------------------------------------------------ workloads

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One workload run, reduced to what the coordinator prints.
struct RunResult {
  std::map<std::string, double> metrics;
  std::map<std::string, std::size_t> samples;  ///< sample count per timing metric
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t verdictErrors = 0;
  std::vector<std::string> notes;  ///< failure and mismatch descriptions
};

RunResult runCold(const RunConfig& config);

/// The oracle's reference for a cold workload: a layered 1-thread analysis
/// in an isolated child. Its per-loop report hashes are what every timed
/// sample must reproduce; metrics["oracle_errors"] counts its verdicts that
/// disagree with Table 1/2 (perfect) or the templates (wide).
ChildResult referenceRun(const RunConfig& config);

/// Generates a cold workload's inputs (the body of `perfbench --prepare 1`,
/// the process whose start-up is the cold workloads' set-up); returns their
/// size in bytes.
std::size_t prepareInputs(const RunConfig& config);
RunResult runEdit(const RunConfig& config);

/// Procedures in the generated `wide` and `edit` projects.
inline constexpr int kWideProcedures = 256;

}  // namespace perfbench
