// The parallel analysis driver (see driver.h for the correctness model).
#include "panorama/analysis/driver.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "panorama/corpus/corpus.h"
#include "panorama/frontend/parser.h"
#include "panorama/hsg/hsg.h"
#include "panorama/obs/trace.h"

namespace panorama {

std::vector<std::vector<const Procedure*>> callGraphWaves(const SemaResult& sema) {
  // Procedures keyed by name for callee resolution; the graph is acyclic
  // (sema rejects recursion), so the longest-callee-chain depth is well
  // defined and bottomUpOrder already lists callees before callers.
  std::map<std::string, const Procedure*> byName;
  for (const Procedure* p : sema.bottomUpOrder) byName.emplace(p->name, p);

  std::map<const Procedure*, std::size_t> depth;
  std::size_t maxDepth = 0;
  for (const Procedure* p : sema.bottomUpOrder) {
    std::size_t d = 0;
    std::function<void(const std::vector<StmtPtr>&)> walk =
        [&](const std::vector<StmtPtr>& body) {
          for (const StmtPtr& s : body) {
            if (s->kind == Stmt::Kind::Call) {
              auto callee = byName.find(s->callee);
              if (callee != byName.end()) {
                auto it = depth.find(callee->second);
                // Calls resolve into earlier bottomUpOrder entries only.
                if (it != depth.end()) d = std::max(d, it->second + 1);
              }
            }
            walk(s->thenBody);
            walk(s->elseBody);
            walk(s->body);
          }
        };
    walk(p->body);
    depth.emplace(p, d);
    maxDepth = std::max(maxDepth, d);
  }

  std::vector<std::vector<const Procedure*>> waves(maxDepth + 1);
  for (const Procedure* p : sema.bottomUpOrder) waves[depth.at(p)].push_back(p);
  return waves;
}

void summarizeInWaves(SummaryAnalyzer& analyzer, ThreadPool& pool) {
  // Wave k's procedures only call procedures summarized in earlier waves,
  // so each batch races on nothing but the (lock-guarded) memo maps.
  std::size_t waveIndex = 0;
  for (const auto& wave : callGraphWaves(analyzer.sema())) {
    obs::Span waveSpan("summary.wave", "wave");
    if (waveSpan.active()) {
      waveSpan.arg("wave", std::to_string(waveIndex));
      waveSpan.arg("procedures", std::to_string(wave.size()));
    }
    ++waveIndex;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(wave.size());
    for (const Procedure* p : wave)
      tasks.push_back([&analyzer, p] { analyzer.procSummary(*p); });
    pool.runBatch(std::move(tasks));
  }
}

std::vector<LoopAnalysis> analyzeLoops(SummaryAnalyzer& analyzer,
                                       const std::vector<LoopSite>& sites, ThreadPool& pool) {
  // Results are written by index, so the output is position-identical to
  // `sites` regardless of completion order.
  LoopParallelizer lp(analyzer);
  std::vector<LoopAnalysis> out(sites.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(sites.size());
  for (std::size_t k = 0; k < sites.size(); ++k)
    tasks.push_back(
        [&lp, &out, &sites, k] { out[k] = lp.analyzeLoop(*sites[k].loop, *sites[k].proc); });
  pool.runBatch(std::move(tasks));
  return out;
}

std::vector<LoopAnalysis> analyzeProgramParallel(SummaryAnalyzer& analyzer, ThreadPool& pool) {
  summarizeInWaves(analyzer, pool);
  std::vector<LoopSite> sites;
  for (const Procedure* proc : analyzer.sema().bottomUpOrder)
    for (const Stmt* loop : doLoops(*proc)) sites.push_back({loop, proc});
  return analyzeLoops(analyzer, sites, pool);
}

ProgramAnalysis analyzeProgramUnit(Program program, const AnalysisOptions& options,
                                   ThreadPool& pool) {
  ProgramAnalysis out;
  out.program = std::move(program);
  DiagnosticEngine diags;
  auto sr = [&] {
    obs::Span s("frontend.sema", "program unit");
    return analyze(out.program, diags);
  }();
  if (!sr) {
    out.error = diags.str();
    return out;
  }
  out.sema = std::move(*sr);
  {
    obs::Span s("frontend.hsg", "program unit");
    out.hsg = buildHsg(out.program, out.sema, diags);
  }
  if (diags.hasErrors()) {
    out.error = diags.str();
    return out;
  }
  out.analyzer = std::make_unique<SummaryAnalyzer>(out.program, out.sema, out.hsg, options);
  out.loops = analyzeProgramParallel(*out.analyzer, pool);
  out.ok = true;
  return out;
}

namespace {

/// One corpus kernel's text-to-Program step plus its ProgramAnalysis.
struct KernelJob {
  const CorpusLoop* cl = nullptr;
  ProgramAnalysis pa;
};

void runKernel(KernelJob& job, const AnalysisOptions& options, ThreadPool& pool) {
  obs::Span span("corpus.kernel", job.cl->id);
  DiagnosticEngine diags;
  auto parsed = [&] {
    obs::Span s("frontend.parse", job.cl->id);
    return parseProgram(job.cl->source, diags);
  }();
  if (!parsed) return;
  job.pa = analyzeProgramUnit(std::move(*parsed), options, pool);
}

}  // namespace

CorpusAnalysisResult analyzeCorpusParallel(const AnalysisOptions& options) {
  obs::Span span("corpus.run", "perfect corpus");
  // A corpus run is cold: both memos start empty, with fresh counters.
  QueryCache::global().configure(options.cacheCapacity);
  QueryCache::global().clear();
  clearSimplifyMemo();
  ThreadPool pool(options.numThreads);

  const std::vector<CorpusLoop>& corpus = perfectCorpus();
  std::vector<KernelJob> jobs(corpus.size());
  for (std::size_t k = 0; k < corpus.size(); ++k) jobs[k].cl = &corpus[k];

  // Quantified kernels need no special casing: every analyzer carries its
  // own ψ binding (PsiDims threaded through CmpCtx), so kernels overlap
  // freely regardless of options.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(jobs.size());
  for (KernelJob& job : jobs)
    tasks.push_back([&job, &options, &pool] { runKernel(job, options, pool); });
  pool.runBatch(std::move(tasks));

  CorpusAnalysisResult result;
  result.threadsUsed = pool.threadCount();
  for (const KernelJob& kj : jobs) {
    const ProgramAnalysis& job = kj.pa;
    if (!job.ok) continue;
    SummaryStats s = job.analyzer->stats();
    result.summaryStats.blockSteps += s.blockSteps;
    result.summaryStats.loopExpansions += s.loopExpansions;
    result.summaryStats.callMappings += s.callMappings;
    result.summaryStats.peakListLength =
        std::max(result.summaryStats.peakListLength, s.peakListLength);
    result.summaryStats.garsCreated += s.garsCreated;
    for (const LoopAnalysis& la : job.loops) {
      CorpusRoutineResult r;
      r.kernelId = kj.cl->id;
      r.procName = la.procName;
      r.line = la.line;
      r.classification = la.classification;
      r.report = formatLoopAnalysis(la);
      r.provenance = formatProvenance(la);
      r.provenanceSummary = panorama::provenanceSummary(la);
      r.provenanceEvidenceCount = la.provenance.evidence.size();
      result.loops.push_back(std::move(r));
    }
  }
  result.cacheStats = QueryCache::global().stats();
  result.simplifyStats = simplifyMemoStats();
  return result;
}

}  // namespace panorama
