// The warm `edit` workload: an in-process store::Daemon with two
// closed-loop clients, each on its own named session, streaming seeded
// edits of a `wide`-style project over the daemon's socket protocol.
//
// A run is a sequence of rounds; each round is a freshly forked child that
// starts a daemon with a pool of 1 or 4 threads, makes each client's first
// (cold) submit — the round's set-up — and then times edit round trips for
// its share of the run. The traced run adds a traced daemon round and one
// round that drives AnalysisSession::submit in-process with the benchmark's
// own timers around each layer.
#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "panorama/analysis/driver.h"
#include "panorama/ast/fingerprint.h"
#include "panorama/frontend/parser.h"
#include "panorama/obs/profile.h"
#include "panorama/obs/trace.h"
#include "panorama/predicate/arena.h"
#include "panorama/predicate/predicate.h"
#include "panorama/session/session.h"
#include "panorama/store/daemon.h"
#include "panorama/store/protocol.h"
#include "panorama/support/json.h"
#include "panorama/symbolic/arena.h"

namespace perfbench {

using namespace panorama;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kClients = 2;
constexpr int kSocketTimeoutMs = 30000;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t clientSeed(std::uint64_t seed, int client) {
  return mix(seed * 2654435761u + static_cast<std::uint64_t>(client) + 1);
}

AnalysisOptions optionsFor(std::size_t threads) {
  AnalysisOptions options;
  options.numThreads = threads;
  return options;
}

/// One client connection to the daemon.
class Client {
 public:
  Client(const std::string& socketPath, int index) : index_(index) {
    std::string error;
    fd_ = store::connectUnixSocket(socketPath, &error, kSocketTimeoutMs);
    if (fd_ < 0) throw std::runtime_error("connect: " + error);
    store::setSocketTimeout(fd_, kSocketTimeoutMs, nullptr);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One request/response exchange; the parsed response, or an exception.
  support::JsonValue call(const std::string& request, std::size_t* responseBytes = nullptr) {
    std::string error;
    if (!store::writeFrame(fd_, request, &error)) throw std::runtime_error("write: " + error);
    std::string payload;
    if (store::readFrame(fd_, payload, &error) != store::FrameStatus::Ok)
      throw std::runtime_error("read: " + error);
    if (responseBytes) *responseBytes = payload.size();
    std::optional<support::JsonValue> v = support::JsonValue::parse(payload, &error);
    if (!v || !v->isObject()) throw std::runtime_error("malformed response: " + error);
    const support::JsonValue* ok = v->find("ok");
    if (!ok || !ok->isBool() || !ok->asBool()) {
      const support::JsonValue* message = v->find("error");
      throw std::runtime_error("daemon error: " +
                               (message && message->isString() ? message->asString() : payload));
    }
    return *v;
  }

  /// Submits `source` to this client's named session; returns the report.
  std::string submit(const std::string& source, std::size_t* responseBytes = nullptr) {
    std::string request = "{\"id\":" + std::to_string(++id_) +
                          ",\"op\":\"submit\",\"name\":\"edit.f\",\"session\":\"client" +
                          std::to_string(index_) + "\",\"source\":\"";
    support::appendJsonEscaped(request, source);
    request += "\"}";
    const support::JsonValue v = call(request, responseBytes);
    const support::JsonValue* report = v.find("report");
    if (!report || !report->isString()) throw std::runtime_error("submit response has no report");
    return report->asString();
  }

 private:
  int fd_ = -1;
  int index_;
  std::uint64_t id_ = 0;
};

/// One field ("p50", "sum", "count", ...) of a daemon histogram from a
/// `metrics` response; 0 when absent.
double histogramField(const support::JsonValue& response, const std::string& name,
                      const char* field) {
  const support::JsonValue* registry = response.find("registry");
  const support::JsonValue* histograms = registry ? registry->find("histograms") : nullptr;
  const support::JsonValue* h = histograms ? histograms->find(name) : nullptr;
  const support::JsonValue* v = h ? h->find(field) : nullptr;
  return v && v->isNumber() ? v->asNumber() : 0;
}

/// The edits a client has made so far, and the text they lead to.
struct EditStream {
  Project project;
  std::uint64_t seed = 0;
  std::uint64_t next = 0;
  std::size_t expectedLoops = 0;

  EditStream(std::uint64_t s, int client)
      : project(generateWide(clientSeed(s, client), kWideProcedures)),
        seed(clientSeed(s, client) ^ 0x5eed) {
    expectedLoops = project.expected().size();
  }
  std::string advance() {
    applyEdit(project, seed, next++);
    return project.text();
  }
};

/// One daemon round: set-up, then closed-loop edits until `seconds` pass.
void daemonRound(std::uint64_t seed, std::size_t threads, bool traced, double seconds,
                 const std::string& socketPath, ChildResult& out) {
  const Clock::time_point setup0 = Clock::now();
  std::vector<EditStream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(seed, c);
  store::Daemon daemon(socketPath, optionsFor(threads));
  std::string error;
  if (!daemon.start(error)) throw std::runtime_error("daemon start: " + error);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(socketPath, c));
    clients.back()->submit(streams[c].project.text());
  }
  out.metrics["setup_s"] = msSince(setup0) / 1000.0;
  const support::JsonValue before = clients[0]->call("{\"id\":0,\"op\":\"metrics\"}");

  if (traced) obs::Tracer::global().enable();
  struct Log {
    std::vector<double> rttMs;
    std::vector<double> bytes;
    std::size_t attempted = 0;
    std::size_t loopCountErrors = 0;
    std::string error;
    std::string oracleText;
    std::string oracleReport;
  };
  std::vector<Log> logs(kClients);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threadsRunning;
  for (int c = 0; c < kClients; ++c)
    threadsRunning.emplace_back([&, c] {
      Log& log = logs[c];
      EditStream& stream = streams[c];
      // The oracle re-checks one seeded edit of each client against a cold
      // batch analysis of the same text.
      const std::uint64_t oracleIndex = mix(stream.seed) % 8;
      try {
        while (Clock::now() < deadline) {
          const std::uint64_t index = stream.next;
          const std::string text = stream.advance();
          std::size_t bytes = 0;
          ++log.attempted;
          const Clock::time_point t0 = Clock::now();
          std::string report = clients[c]->submit(text, &bytes);
          log.rttMs.push_back(msSince(t0));
          log.bytes.push_back(static_cast<double>(bytes));
          if (splitLoopReports(report).size() != stream.expectedLoops) ++log.loopCountErrors;
          if (index == oracleIndex) {
            log.oracleText = text;
            log.oracleReport = std::move(report);
          }
        }
      } catch (const std::exception& e) {
        log.error = e.what();
      }
    });
  for (std::thread& t : threadsRunning) t.join();
  if (traced) obs::Tracer::global().disable();

  const support::JsonValue after = clients[0]->call("{\"id\":0,\"op\":\"metrics\"}");
  clients.clear();
  daemon.stop();
  daemon.wait();

  std::size_t attempted = 0, failed = 0, loopCountErrors = 0;
  std::vector<double> bytes;
  for (Log& log : logs) {
    attempted += log.attempted;
    failed += log.attempted - log.rttMs.size();
    loopCountErrors += log.loopCountErrors;
    out.samples.insert(out.samples.end(), log.rttMs.begin(), log.rttMs.end());
    bytes.insert(bytes.end(), log.bytes.begin(), log.bytes.end());
    if (!log.error.empty()) out.error += log.error + "; ";
    if (!log.oracleText.empty()) {
      out.blobs.push_back(std::to_string(&log - logs.data()));
      out.blobs.push_back(std::move(log.oracleText));
      out.blobs.push_back(std::move(log.oracleReport));
    }
  }
  out.metrics["attempted"] = static_cast<double>(attempted);
  out.metrics["failed"] = static_cast<double>(failed);
  out.metrics["loop_count_errors"] = static_cast<double>(loopCountErrors);
  out.metrics["daemon.response_bytes"] = median(bytes);
  out.metrics["daemon.queue_us_p50"] = histogramField(after, "daemon.op.submit.queue_us", "p50");
  out.metrics["daemon.handle_us_p50"] = histogramField(after, "daemon.op.submit.handle_us", "p50");
  // Transport: the mean round trip minus the daemon's mean wall time per
  // submit (queue + handle), both over the timed edits only. Means, because
  // the daemon's quantiles come from log2 buckets too coarse to subtract.
  const std::string wall = "daemon.op.submit.wall_us";
  const double edits = histogramField(after, wall, "count") - histogramField(before, wall, "count");
  const double wallUs = histogramField(after, wall, "sum") - histogramField(before, wall, "sum");
  double rttSum = 0;
  for (double v : out.samples) rttSum += v;
  if (edits > 0 && !out.samples.empty())
    out.metrics["daemon.transport_ms"] =
        rttSum / static_cast<double>(out.samples.size()) - wallUs / edits / 1000.0;
}

/// The traced in-process round: the same edit stream submitted straight to
/// an AnalysisSession, with the benchmark's own timers around parsing and
/// the submit, probes of the fingerprint and sema layers on the same text,
/// and the library's spans and counters read per submit.
void sessionRound(std::uint64_t seed, double seconds, ChildResult& out) {
  EditStream stream(seed, 0);
  AnalysisSession session(optionsFor(1));
  if (!session.submit(stream.project.text()).ok) throw std::runtime_error("cold submit failed");

  std::map<std::string, std::vector<double>> per;
  obs::Tracer::global().clear();
  obs::Tracer::global().enable();
  std::size_t submits = 0;
  const Clock::time_point start = Clock::now();
  while (msSince(start) < seconds * 1000.0) {
    const std::string text = stream.advance();
    DiagnosticEngine diags;
    const Clock::time_point t0 = Clock::now();
    std::optional<Program> program = parseProgram(text, diags);
    const double parseMs = msSince(t0);
    if (!program) throw std::runtime_error("parse failed: " + diags.str());

    // Probes: the session fingerprints and runs sema internally; time one
    // pass of each on the same text outside the submit.
    Clock::time_point t = Clock::now();
    for (const Procedure& proc : program->procedures) fingerprintProcedureDetail(proc);
    per["ast.fingerprint_ms"].push_back(msSince(t));
    std::optional<Program> probe = parseProgram(text, diags);
    t = Clock::now();
    if (!probe || !analyze(*probe, diags)) throw std::runtime_error("sema failed: " + diags.str());
    per["ast.sema_ms"].push_back(msSince(t));

    const QueryCache::Stats qc0 = QueryCache::global().stats();
    const QueryCache::Stats memo0 = simplifyMemoStats();
    const std::size_t exprs0 = ExprArena::global().stats().distinct;
    const std::size_t preds0 = PredArena::global().stats().distinct;
    t = Clock::now();
    SessionResult r = session.submit(std::move(*program));
    const double submitMs = msSince(t);
    if (!r.ok) throw std::runtime_error("submit failed: " + r.error);
    ++submits;
    const QueryCache::Stats qc = QueryCache::global().stats();
    const QueryCache::Stats memo = simplifyMemoStats();

    per["frontend.parse_ms"].push_back(parseMs);
    per["frontend.lines"].push_back(static_cast<double>(std::count(text.begin(), text.end(), '\n')));
    per["session.submit_ms"].push_back(submitMs);
    per["session.dirty_units"].push_back(static_cast<double>(r.stats.dirty));
    per["session.loops_recomputed"].push_back(static_cast<double>(r.stats.loopsRecomputed));
    per["analysis.loops"].push_back(static_cast<double>(r.stats.loopsRecomputed));
    const double loopsSeen = static_cast<double>(r.stats.loopsReused + r.stats.loopsRecomputed);
    if (loopsSeen > 0)
      per["session.loop_reuse_ratio"].push_back(static_cast<double>(r.stats.loopsReused) / loopsSeen);
    const double lookups = static_cast<double>(qc.hits + qc.misses - qc0.hits - qc0.misses);
    per["query_cache.misses"].push_back(static_cast<double>(qc.misses - qc0.misses));
    if (lookups > 0)
      per["query_cache.hit_ratio"].push_back(static_cast<double>(qc.hits - qc0.hits) / lookups);
    const double memoLookups =
        static_cast<double>(memo.hits + memo.misses - memo0.hits - memo0.misses);
    if (memoLookups > 0)
      per["simplify_memo.hit_ratio"].push_back(static_cast<double>(memo.hits - memo0.hits) /
                                               memoLookups);
    per["intern.exprs_created"].push_back(
        static_cast<double>(ExprArena::global().stats().distinct - exprs0));
    per["intern.preds_created"].push_back(
        static_cast<double>(PredArena::global().stats().distinct - preds0));
  }
  obs::Tracer::global().disable();
  for (const auto& [key, values] : per) out.metrics[key] = median(values);

  // Span totals of the whole round, per submit.
  const obs::CostProfile profile = obs::buildCostProfile(obs::Tracer::global().snapshot());
  double expansionSelf = 0, fm = 0, prefilter = 0, implies = 0, summary = 0, loops = 0,
         maxProc = 0;
  std::function<void(const obs::PhaseNode&, const std::string&)> walk =
      [&](const obs::PhaseNode& node, const std::string& parent) {
        const double selfMs = static_cast<double>(node.selfNs) / 1e6;
        const double totalMs = static_cast<double>(node.totalNs) / 1e6;
        if (node.category == "summary.loop_expansion") expansionSelf += selfMs;
        if (node.category == "query.fm") fm += selfMs;
        if (node.category == "query.prefilter") prefilter += selfMs;
        if (node.category == "query.implies") implies += selfMs;
        if (node.category == "summary.proc") {
          maxProc = std::max(maxProc, static_cast<double>(node.maxNs) / 1e6);
          if (parent != "summary.proc") summary += totalMs;
        }
        if (node.category == "analysis.loop" && parent != "analysis.loop") loops += totalMs;
        for (const obs::PhaseNode& child : node.children) walk(child, node.category);
      };
  for (const obs::PhaseNode& root : profile.phases) walk(root, "");
  const double n = submits ? static_cast<double>(submits) : 1.0;
  out.metrics["region.expansion_self_ms"] = expansionSelf / n;
  out.metrics["query.fm_ms"] = fm / n;
  out.metrics["query.prefilter_ms"] = prefilter / n;
  out.metrics["query.implies_ms"] = implies / n;
  out.metrics["summary.ms"] = summary / n;
  out.metrics["analysis.loop_ms"] = loops / n;
  out.metrics["summary.max_proc_ms"] = maxProc;

  // Share of parse + submit that no layer accounts for. Inside a submit the
  // session fingerprints every procedure once and runs sema twice
  // (validation, then against its persistent tables); the probes above
  // stand in for those passes, the spans for summaries and loop analyses.
  // The rest is session bookkeeping: diffing, splicing, report composition.
  const auto& mm = out.metrics;
  const double wall = mm.at("frontend.parse_ms") + mm.at("session.submit_ms");
  const double attributed = mm.at("frontend.parse_ms") + mm.at("ast.fingerprint_ms") +
                            2 * mm.at("ast.sema_ms") + mm.at("summary.ms") +
                            mm.at("analysis.loop_ms");
  out.metrics["trace.unattributed_share"] = wall > 0 ? 1.0 - attributed / wall : 0;

  // Call-graph shape of the project the session serves.
  DiagnosticEngine diags;
  std::optional<Program> program = parseProgram(stream.project.text(), diags);
  std::optional<SemaResult> sema = program ? analyze(*program, diags) : std::nullopt;
  if (!sema) throw std::runtime_error("sema failed: " + diags.str());
  const auto waves = callGraphWaves(*sema);
  out.metrics["driver.waves"] = static_cast<double>(waves.size());
  double width = 0;
  for (const auto& wave : waves) width = std::max(width, static_cast<double>(wave.size()));
  out.metrics["driver.max_wave_width"] = width;
}

/// Cold batch analysis of one edited text (4-thread pool, fresh process),
/// compared loop by loop with the daemon's response and the templates.
std::size_t oracleErrors(const std::string& text, const std::string& response,
                         const std::vector<ExpectedLoop>& expected, ChildResult& out) {
  ThreadPool pool(4);
  DiagnosticEngine diags;
  std::optional<Program> program = parseProgram(text, diags);
  if (!program) throw std::runtime_error("parse failed: " + diags.str());
  ProgramAnalysis pa = analyzeProgramUnit(std::move(*program), optionsFor(4), pool);
  if (!pa.ok) throw std::runtime_error("analysis failed: " + pa.error);
  std::vector<std::string> reports;
  std::vector<LoopVerdict> verdicts;
  for (const LoopAnalysis& la : pa.loops) {
    reports.push_back(formatLoopAnalysis(la));
    verdicts.push_back(verdictOf(la));
  }
  std::vector<std::uint64_t> cold, warm;
  for (const std::string& r : reports) cold.push_back(hashReport(r));
  for (const std::string& r : splitLoopReports(response)) warm.push_back(hashReport(r));
  out.metrics["checked"] = static_cast<double>(cold.size() + expected.size());
  return countMismatches(cold, warm) + countTemplateErrors(expected, verdicts);
}

enum class Round { Daemon1, Daemon4, Traced1, Session1 };

}  // namespace

RunResult runEdit(const RunConfig& config) {
  RunResult result;
  std::vector<Round> rounds = {Round::Daemon1, Round::Daemon4, Round::Daemon1, Round::Daemon4};
  if (config.trace) rounds = {Round::Daemon1, Round::Traced1, Round::Session1, Round::Daemon4};
  std::rotate(rounds.begin(), rounds.begin() + static_cast<long>(mix(config.seed) % 2),
              rounds.end());
  const double roundSeconds = config.seconds / static_cast<double>(rounds.size());

  // The daemon's socket lives in the working directory (the build tree).
  const std::string socketPath = "perfbench-" + std::to_string(::getpid()) + ".sock";
  std::vector<std::vector<ExpectedLoop>> expected;
  for (int c = 0; c < kClients; ++c)
    expected.push_back(generateWide(clientSeed(config.seed, c), kWideProcedures).expected());

  std::map<Round, std::vector<double>> rtt;
  std::map<std::string, std::vector<double>> layer;
  std::vector<double> setupS;
  double peakRss = 0;
  std::size_t checked = 0;
  for (const Round round : rounds) {
    const unsigned timeout = static_cast<unsigned>(roundSeconds) + 45;
    const ChildResult r = runIsolated(
        [&](ChildResult& out) {
          if (round == Round::Session1)
            sessionRound(config.seed, roundSeconds, out);
          else
            daemonRound(config.seed, round == Round::Daemon4 ? 4 : 1, round == Round::Traced1,
                        roundSeconds, socketPath, out);
        },
        timeout);
    if (!r.error.empty()) result.notes.push_back("round: " + r.error);
    if (!r.ok) {
      ++result.attempted;
      ++result.failed;
      continue;
    }
    if (round == Round::Session1) {
      for (const auto& [key, value] : r.metrics) layer[key].push_back(value);
      continue;
    }
    peakRss = std::max(peakRss, r.peakRssMb);
    setupS.push_back(r.metrics.at("setup_s"));
    rtt[round].insert(rtt[round].end(), r.samples.begin(), r.samples.end());
    result.attempted += static_cast<std::size_t>(r.metrics.at("attempted"));
    result.failed += static_cast<std::size_t>(r.metrics.at("failed"));
    result.verdictErrors += static_cast<std::size_t>(r.metrics.at("loop_count_errors"));
    checked += r.samples.size();
    if (round == Round::Daemon1)
      for (const char* key : {"daemon.response_bytes", "daemon.queue_us_p50",
                              "daemon.handle_us_p50", "daemon.transport_ms"})
        if (r.metrics.count(key)) layer[key].push_back(r.metrics.at(key));

    for (std::size_t k = 0; k + 2 < r.blobs.size(); k += 3) {
      const std::vector<ExpectedLoop>& e = expected.at(std::stoul(r.blobs[k]));
      const ChildResult o = runIsolated(
          [&](ChildResult& out) {
            out.metrics["errors"] =
                static_cast<double>(oracleErrors(r.blobs[k + 1], r.blobs[k + 2], e, out));
          },
          30);
      if (!o.ok) {
        ++result.verdictErrors;
        result.notes.push_back("edit oracle: " + o.error);
        continue;
      }
      result.verdictErrors += static_cast<std::size_t>(o.metrics.at("errors"));
      checked += static_cast<std::size_t>(o.metrics.at("checked"));
    }
  }

  auto& m = result.metrics;
  const std::vector<double>& t1 = rtt[Round::Daemon1];
  const std::vector<double>& t4 = rtt[Round::Daemon4];
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
    for (const auto& [key, values] : layer) m[key] = median(values);
    const double t1Median = median(t1);
    m["driver.parallel_efficiency"] = t1Median / (4.0 * median(t4));
    m["trace.overhead_share"] = median(rtt[Round::Traced1]) / t1Median - 1.0;
    result.samples["t1"] = t1.size();
    result.samples["traced"] = rtt[Round::Traced1].size();
  }
  m["verdict_match_share"] =
      checked ? 1.0 - static_cast<double>(result.verdictErrors) / static_cast<double>(checked)
              : 0.0;
  return result;
}

}  // namespace perfbench
