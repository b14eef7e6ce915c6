// The cold batch workloads: `perfect` (the twelve Table 1/2 kernels through
// analyzeCorpusParallel) and `wide` (a seeded ~256-procedure program through
// parseProgram + analyzeProgramUnit). Every sample is one request in a
// freshly forked child.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>

#include "bench.h"
#include "panorama/analysis/driver.h"
#include "panorama/ast/fingerprint.h"
#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/profile.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/predicate.h"
#include "panorama/symbolic/arena.h"

namespace perfbench {

using namespace panorama;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kChildTimeoutSeconds = 30;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The inputs of one cold workload: named sources, plus what the oracle
/// checks the reference verdicts against.
struct ColdInputs {
  bool perfect = false;
  std::vector<std::string> sources;
  std::vector<ExpectedLoop> expected;  ///< wide only
};

/// Runs `perfbench --prepare` for this workload in a fresh process.
bool prepareInFreshProcess(const RunConfig& config) {
  std::fflush(nullptr);
  const std::string seed = std::to_string(config.seed);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execl("/proc/self/exe", "perfbench", "--workload", config.workload.c_str(), "--seed",
            seed.c_str(), "--prepare", "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

ColdInputs makeInputs(const RunConfig& config) {
  ColdInputs in;
  in.perfect = config.workload == "perfect";
  if (in.perfect) {
    for (const CorpusLoop& cl : perfectCorpus()) in.sources.emplace_back(cl.source);
  } else {
    const Project project = generateWide(config.seed, kWideProcedures);
    in.sources.push_back(project.text());
    in.expected = project.expected();
  }
  return in;
}

AnalysisOptions optionsFor(std::size_t threads) {
  AnalysisOptions options;
  options.numThreads = threads;
  return options;
}

/// Counters read around a request: arena occupancy deltas, cache and memo
/// counters, summary cost counters.
void recordCounters(ChildResult& out, const SummaryStats& s, std::size_t exprs0,
                    std::size_t preds0) {
  const QueryCache::Stats qc = QueryCache::global().stats();
  out.metrics["summary.gars_created"] = static_cast<double>(s.garsCreated);
  out.metrics["summary.peak_list_len"] = static_cast<double>(s.peakListLength);
  out.metrics["query_cache.hit_ratio"] = qc.hitRate();
  out.metrics["query_cache.misses"] = static_cast<double>(qc.misses);
  out.metrics["simplify_memo.hit_ratio"] = simplifyMemoStats().hitRate();
  out.metrics["intern.exprs_created"] =
      static_cast<double>(ExprArena::global().stats().distinct - exprs0);
  out.metrics["intern.preds_created"] =
      static_cast<double>(PredArena::global().stats().distinct - preds0);
}

/// One timed batch request through the library's batch entry points.
/// Reports are formatted inside the timed section: a batch analysis is not
/// done until its verdicts are rendered.
void request(const ColdInputs& in, std::size_t threads, bool traced, ChildResult& out) {
  const std::size_t exprs0 = ExprArena::global().stats().distinct;
  const std::size_t preds0 = PredArena::global().stats().distinct;
  if (traced) obs::Tracer::global().enable();
  SummaryStats stats;
  std::vector<std::string> reports;
  const Clock::time_point t0 = Clock::now();
  if (in.perfect) {
    CorpusAnalysisResult r = analyzeCorpusParallel(optionsFor(threads));
    for (CorpusRoutineResult& loop : r.loops) reports.push_back(std::move(loop.report));
    stats = r.summaryStats;
  } else {
    ThreadPool pool(threads);
    DiagnosticEngine diags;
    std::optional<Program> program = parseProgram(in.sources[0], diags);
    if (!program) throw std::runtime_error("parse failed: " + diags.str());
    ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), optionsFor(threads), pool);
    if (!pa.ok) throw std::runtime_error("analysis failed: " + pa.error);
    for (const LoopAnalysis& la : pa.loops) reports.push_back(formatLoopAnalysis(la));
    stats = pa.analyzer->stats();
  }
  out.metrics["wall_ms"] = msSince(t0);
  for (const std::string& r : reports) out.hashes.push_back(hashReport(r));
  if (!traced) return;

  obs::Tracer::global().disable();
  recordCounters(out, stats, exprs0, preds0);
  const obs::CostProfile profile = obs::buildCostProfile(obs::Tracer::global().snapshot());
  double expansionSelf = 0, fm = 0, prefilter = 0, implies = 0, maxProc = 0;
  std::function<void(const obs::PhaseNode&)> walk = [&](const obs::PhaseNode& node) {
    const double selfMs = static_cast<double>(node.selfNs) / 1e6;
    if (node.category == "summary.loop_expansion") expansionSelf += selfMs;
    if (node.category == "query.fm") fm += selfMs;
    if (node.category == "query.prefilter") prefilter += selfMs;
    if (node.category == "query.implies") implies += selfMs;
    if (node.category == "summary.proc")
      maxProc = std::max(maxProc, static_cast<double>(node.maxNs) / 1e6);
    for (const obs::PhaseNode& child : node.children) walk(child);
  };
  for (const obs::PhaseNode& root : profile.phases) walk(root);
  out.metrics["region.expansion_self_ms"] = expansionSelf;
  out.metrics["query.fm_ms"] = fm;
  out.metrics["query.prefilter_ms"] = prefilter;
  out.metrics["query.implies_ms"] = implies;
  out.metrics["summary.max_proc_ms"] = maxProc;
}

/// The same analysis as a 1-thread request, driven one layer at a time so
/// the benchmark can time its own call into each layer. Its loop order is
/// the serial driver's, so its report hashes are the reference every timed
/// sample is compared against; its verdicts are checked against Table 1/2
/// (perfect) or the templates (wide).
void layered(const ColdInputs& in, ChildResult& out) {
  double parseMs = 0, fingerprintMs = 0, semaMs = 0, hsgMs = 0, summaryMs = 0, loopMs = 0;
  double lines = 0, loops = 0, waves = 0, maxWaveWidth = 0;
  std::vector<std::vector<LoopVerdict>> verdicts;
  std::vector<int> corpusLines;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < in.sources.size(); ++k) {
    const std::string& source = in.sources[k];
    lines += static_cast<double>(std::count(source.begin(), source.end(), '\n'));
    DiagnosticEngine diags;
    Clock::time_point t = Clock::now();
    std::optional<Program> program = parseProgram(source, diags);
    parseMs += msSince(t);
    if (!program) throw std::runtime_error("parse failed: " + diags.str());

    t = Clock::now();
    for (const Procedure& proc : program->procedures) fingerprintProcedureDetail(proc);
    fingerprintMs += msSince(t);

    t = Clock::now();
    std::optional<SemaResult> sema = analyze(*program, diags);
    semaMs += msSince(t);
    if (!sema) throw std::runtime_error("sema failed: " + diags.str());

    t = Clock::now();
    Hsg hsg = buildHsg(*program, *sema, diags);
    hsgMs += msSince(t);
    if (diags.hasErrors()) throw std::runtime_error("hsg failed: " + diags.str());

    t = Clock::now();
    SummaryAnalyzer analyzer(*program, *sema, hsg, optionsFor(1));
    analyzer.analyzeAll();
    summaryMs += msSince(t);

    std::vector<LoopVerdict>& mine = verdicts.emplace_back();
    LoopParallelizer lp(analyzer);
    for (const Procedure* proc : sema->bottomUpOrder) {
      std::function<void(const std::vector<StmtPtr>&)> walk = [&](const std::vector<StmtPtr>& body) {
        for (const StmtPtr& s : body) {
          if (s->kind == Stmt::Kind::Do) {
            const Clock::time_point tl = Clock::now();
            LoopAnalysis la = lp.analyzeLoop(*s, *proc);
            loopMs += msSince(tl);
            ++loops;
            out.hashes.push_back(hashReport(formatLoopAnalysis(la)));
            mine.push_back(verdictOf(la));
          }
          walk(s->thenBody);
          walk(s->elseBody);
          walk(s->body);
        }
      };
      walk(proc->body);
    }

    const auto schedule = callGraphWaves(*sema);
    waves = std::max(waves, static_cast<double>(schedule.size()));
    for (const auto& wave : schedule)
      maxWaveWidth = std::max(maxWaveWidth, static_cast<double>(wave.size()));
    if (in.perfect) {
      const CorpusLoop& cl = perfectCorpus()[k];
      const Stmt* loop = findOuterLoop(*program, cl.routine, cl.outerLoopIndex);
      corpusLines.push_back(loop ? loop->loc.line : -1);
    }
  }
  const double wallMs = msSince(t0);

  out.metrics["oracle_errors"] = static_cast<double>(
      in.perfect ? countTableErrors(verdicts, corpusLines)
                 : countTemplateErrors(in.expected, verdicts[0]));
  out.metrics["oracle_checked"] =
      static_cast<double>(in.perfect ? perfectCorpus().size() : in.expected.size());
  out.metrics["wall_ms"] = wallMs;
  out.metrics["frontend.parse_ms"] = parseMs;
  out.metrics["frontend.lines"] = lines;
  out.metrics["ast.fingerprint_ms"] = fingerprintMs;
  out.metrics["ast.sema_ms"] = semaMs;
  out.metrics["hsg.build_ms"] = hsgMs;
  out.metrics["summary.ms"] = summaryMs;
  out.metrics["analysis.loop_ms"] = loopMs;
  out.metrics["analysis.loops"] = loops;
  out.metrics["driver.waves"] = waves;
  out.metrics["driver.max_wave_width"] = maxWaveWidth;
  const double attributed = parseMs + fingerprintMs + semaMs + hsgMs + summaryMs + loopMs;
  out.metrics["trace.unattributed_share"] = wallMs > 0 ? 1.0 - attributed / wallMs : 0;
}

enum class Kind { Untraced1, Untraced4, Traced1, Layered1 };

}  // namespace

ChildResult referenceRun(const RunConfig& config) {
  const ColdInputs inputs = makeInputs(config);
  return runIsolated([&](ChildResult& r) { layered(inputs, r); }, kChildTimeoutSeconds);
}

std::size_t prepareInputs(const RunConfig& config) {
  const ColdInputs in = makeInputs(config);
  std::size_t bytes = 0;
  for (const std::string& s : in.sources) bytes += s.size();
  return bytes;
}

RunResult runCold(const RunConfig& config) {
  RunResult result;

  // Set-up is starting a fresh process that loads the library and generates
  // the inputs, so work moved into static initialization shows; it is
  // repeated and the median kept.
  std::vector<double> setupS;
  for (int rep = 0; rep < 31; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (!prepareInFreshProcess(config)) {
      ++result.attempted;
      ++result.failed;
      result.notes.push_back("set-up process failed");
      return result;
    }
    setupS.push_back(msSince(t0) / 1000.0);
  }
  const ColdInputs inputs = makeInputs(config);

  // The reference: one layered 1-thread analysis, checked by the oracle.
  std::size_t checked = 0;
  auto failed = [&](const ChildResult& r, const char* what) {
    ++result.failed;
    result.notes.push_back(std::string(what) + ": " + r.error);
  };
  const ChildResult reference =
      runIsolated([&](ChildResult& r) { layered(inputs, r); }, kChildTimeoutSeconds);
  ++result.attempted;
  if (!reference.ok) {
    failed(reference, "reference");
    result.verdictErrors += 1;
    return result;
  }
  result.verdictErrors += static_cast<std::size_t>(reference.metrics.at("oracle_errors"));
  checked += static_cast<std::size_t>(reference.metrics.at("oracle_checked"));

  std::vector<Kind> cycle = {Kind::Untraced1, Kind::Untraced4};
  if (config.trace) cycle = {Kind::Untraced1, Kind::Traced1, Kind::Layered1, Kind::Untraced4};
  // The seed decides which side of the cycle goes first.
  std::rotate(cycle.begin(), cycle.begin() + static_cast<long>(mix(config.seed) % cycle.size()),
              cycle.end());

  std::map<Kind, std::vector<double>> wall;
  std::map<std::string, std::vector<double>> layer;
  double peakRss = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; msSince(start) < config.seconds * 1000.0; ++k) {
    const Kind kind = cycle[k % cycle.size()];
    const ChildResult r = runIsolated(
        [&](ChildResult& out) {
          if (kind == Kind::Layered1)
            layered(inputs, out);
          else
            request(inputs, kind == Kind::Untraced4 ? 4 : 1, kind == Kind::Traced1, out);
        },
        kChildTimeoutSeconds);
    ++result.attempted;
    if (!r.ok) {
      failed(r, "sample");
      continue;
    }
    peakRss = std::max(peakRss, r.peakRssMb);
    wall[kind].push_back(r.metrics.at("wall_ms"));
    result.verdictErrors += countMismatches(reference.hashes, r.hashes);
    checked += reference.hashes.size();
    if (kind == Kind::Layered1)
      result.verdictErrors += static_cast<std::size_t>(r.metrics.at("oracle_errors"));
    if (kind == Kind::Traced1 || kind == Kind::Layered1)
      for (const auto& [key, value] : r.metrics) layer[key].push_back(value);
  }

  auto& m = result.metrics;
  const std::vector<double>& t1 = wall[Kind::Untraced1];
  const std::vector<double>& t4 = wall[Kind::Untraced4];
  if (!config.trace) {
    m["t1_ms_p50"] = median(t1);
    m["t1_ms_p90"] = percentile(t1, 90);
    m["t4_ms_p50"] = median(t4);
    m["t4_ms_p90"] = percentile(t4, 90);
    result.samples["t1"] = t1.size();
    result.samples["t4"] = t4.size();
    m["setup_s"] = median(setupS);
    m["peak_rss_mb"] = peakRss;
  } else {
    for (const auto& [key, values] : layer)
      if (key != "wall_ms" && key != "oracle_errors" && key != "oracle_checked")
        m[key] = median(values);
    const double t1Median = median(t1);
    m["driver.parallel_efficiency"] = t1Median / (4.0 * median(t4));
    m["trace.overhead_share"] = median(wall[Kind::Traced1]) / t1Median - 1.0;
    result.samples["traced"] = wall[Kind::Traced1].size();
    result.samples["layered"] = wall[Kind::Layered1].size();
  }
  m["verdict_match_share"] =
      checked ? 1.0 - static_cast<double>(result.verdictErrors) / static_cast<double>(checked)
              : 0.0;
  return result;
}

}  // namespace perfbench
