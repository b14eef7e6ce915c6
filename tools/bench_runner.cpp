// The unified benchmark driver: runs every bench registered with
// bench/harness.h, writes one BENCH_<name>.json snapshot per bench, appends
// one single-line record per run to BENCH_history.jsonl, and — with
// --check — compares each bench against its committed baseline snapshot
// using the tolerances the bench's own code declares.
//
//   bench_runner [flags] [--benchmark_*...]
//     --list                print registered bench names and exit
//     --only=NAME           run just one bench
//     --check               gate against baselines; exit 2 on regression
//     --update-baselines    rewrite the baseline snapshots from this run's
//                           passing benches (a FAILED bench keeps its baseline)
//     --baseline-dir=DIR    where committed BENCH_*.json baselines live (.)
//     --out-dir=DIR         where snapshots + history are written (.)
//     --history=FILE        history path (default <out-dir>/BENCH_history.jsonl)
//     --benchmark_*         forwarded to google-benchmark (micro-ops)
//
// Every bench gets exactly one verdict line: FAILED, REGRESSION or ok.
// Exit status: 0 ok; 1 a bench failed its own contract (or a write failed);
// 2 the regression gate tripped.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

using namespace panorama::bench;

int main(int argc, char** argv) {
  bool list = false;
  SuiteOptions options;
  std::vector<std::string> forwarded;
  for (int k = 1; k < argc; ++k) {
    std::string_view arg = argv[k];
    auto value = [&](std::string_view prefix) { return std::string(arg.substr(prefix.size())); };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--update-baselines") {
      options.updateBaselines = true;
    } else if (arg.rfind("--only=", 0) == 0) {
      options.only = value("--only=");
    } else if (arg.rfind("--baseline-dir=", 0) == 0) {
      options.baselineDir = value("--baseline-dir=");
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      options.outDir = value("--out-dir=");
    } else if (arg.rfind("--history=", 0) == 0) {
      options.historyPath = value("--history=");
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      forwarded.emplace_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[k]);
      return 1;
    }
  }
  setExtraArgs(std::move(forwarded));

  if (list) {
    for (const BenchSpec& spec : Registry::global().all()) std::printf("%s\n", spec.name.c_str());
    return 0;
  }
  if (!options.only.empty() && !Registry::global().find(options.only)) {
    std::fprintf(stderr, "no bench named '%s' (see --list)\n", options.only.c_str());
    return 1;
  }

  options.git = gitDescribe();
  return runSuite(Registry::global(), options, stdout, stderr);
}
