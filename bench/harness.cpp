#include "harness.h"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>

#include "panorama/support/json.h"

namespace panorama::bench {

using support::JsonValue;

Metric& BenchResult::add(std::string name, double value, Direction direction, double relTolerance,
                         std::string unit) {
  Metric m;
  m.value = value;
  m.direction = direction;
  m.relTolerance = relTolerance;
  m.unit = std::move(unit);
  metrics.emplace_back(std::move(name), std::move(m));
  return metrics.back().second;
}

void BenchResult::addConfig(std::string key, std::string value) {
  config.emplace_back(std::move(key), std::move(value));
}

void BenchResult::fail(std::string why) {
  ok = false;
  // Accumulate every reason: a --check run that regresses three metrics must
  // report all three, not just the first one it happened to evaluate.
  if (failure.empty()) {
    failure = std::move(why);
  } else {
    failure += "; ";
    failure += why;
  }
}

const Metric* BenchResult::find(std::string_view name) const {
  for (const auto& [n, m] : metrics)
    if (n == name) return &m;
  return nullptr;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

void Registry::add(BenchSpec spec) { specs_.push_back(std::move(spec)); }

const BenchSpec* Registry::find(std::string_view name) const {
  for (const BenchSpec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

Registration::Registration(BenchSpec spec) { Registry::global().add(std::move(spec)); }

BenchResult runBench(const BenchSpec& spec) {
  for (int k = 0; k < spec.warmup; ++k) (void)spec.run();
  BenchResult merged = spec.run();
  for (int rep = 1; rep < spec.repetitions && merged.ok; ++rep) {
    BenchResult next = spec.run();
    if (!next.ok) return next;
    for (auto& [name, metric] : merged.metrics) {
      const Metric* other = next.find(name);
      if (!other) {
        merged.fail("metric '" + name + "' missing from repetition " + std::to_string(rep));
        break;
      }
      switch (metric.direction) {
        case Direction::LowerIsBetter:
          if (other->value < metric.value) metric.value = other->value;
          break;
        case Direction::HigherIsBetter:
          if (other->value > metric.value) metric.value = other->value;
          break;
        case Direction::Exact:
          if (other->value != metric.value)
            merged.fail("exact metric '" + name + "' differs across repetitions (" +
                        std::to_string(metric.value) + " vs " + std::to_string(other->value) +
                        ")");
          break;
      }
    }
  }
  // Hard contracts hold on every run, baseline or not.
  for (const auto& [name, metric] : merged.metrics) {
    if (metric.maxValue && metric.value > *metric.maxValue)
      merged.fail("metric '" + name + "' = " + std::to_string(metric.value) +
                  " exceeds hard max " + std::to_string(*metric.maxValue));
    if (metric.minValue && metric.value < *metric.minValue)
      merged.fail("metric '" + name + "' = " + std::to_string(metric.value) +
                  " below hard min " + std::to_string(*metric.minValue));
  }
  return merged;
}

namespace {

void appendNumber(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && std::fabs(v) < 1e15) {
    out += std::to_string(static_cast<long long>(v));
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out += buf;
  }
}

void appendQuoted(std::string& out, std::string_view s) {
  out += '"';
  support::appendJsonEscaped(out, s);
  out += '"';
}

const char* directionName(Direction d) {
  switch (d) {
    case Direction::LowerIsBetter: return "lower";
    case Direction::HigherIsBetter: return "higher";
    case Direction::Exact: return "exact";
  }
  return "?";
}

}  // namespace

std::string renderRecord(const BenchSpec& spec, const BenchResult& result,
                         const std::string& gitDescribe, long long timestampUnix, bool pretty) {
  const char* nl = pretty ? "\n  " : " ";
  std::string out = "{";
  out += nl;
  out += "\"schema_version\": 1,";
  out += nl;
  out += "\"bench\": ";
  appendQuoted(out, spec.name);
  out += ",";
  out += nl;
  out += "\"git\": ";
  appendQuoted(out, gitDescribe);
  out += ",";
  out += nl;
  out += "\"timestamp_unix\": " + std::to_string(timestampUnix) + ",";
  out += nl;
  out += "\"repetitions\": " + std::to_string(spec.repetitions) + ",";
  out += nl;
  out += "\"warmup\": " + std::to_string(spec.warmup) + ",";
  out += nl;
  out += std::string("\"ok\": ") + (result.ok ? "true" : "false") + ",";
  out += nl;
  out += "\"config\": {";
  for (std::size_t k = 0; k < result.config.size(); ++k) {
    if (k) out += ", ";
    appendQuoted(out, result.config[k].first);
    out += ": ";
    appendQuoted(out, result.config[k].second);
  }
  out += "},";
  out += nl;
  out += "\"metrics\": {";
  for (std::size_t k = 0; k < result.metrics.size(); ++k) {
    const auto& [name, m] = result.metrics[k];
    if (k) out += ",";
    if (pretty) out += "\n    ";
    else if (k) out += " ";
    appendQuoted(out, name);
    out += ": {\"value\": ";
    appendNumber(out, m.value);
    out += ", \"unit\": ";
    appendQuoted(out, m.unit);
    out += ", \"direction\": \"";
    out += directionName(m.direction);
    out += "\", \"rel_tolerance\": ";
    appendNumber(out, m.relTolerance);
    if (m.maxValue) {
      out += ", \"max\": ";
      appendNumber(out, *m.maxValue);
    }
    if (m.minValue) {
      out += ", \"min\": ";
      appendNumber(out, *m.minValue);
    }
    out += std::string(", \"gated\": ") + (m.gated ? "true" : "false") + "}";
  }
  if (pretty && !result.metrics.empty()) out += "\n  ";
  out += "}";
  if (!result.profileJson.empty()) {
    out += ",";
    out += nl;
    out += "\"profile\": ";
    if (pretty) {
      out += result.profileJson;
    } else {
      // The embedded profile arrives pretty-rendered; a history record must
      // stay one JSONL line. Newlines in JSON text only ever occur as
      // formatting whitespace (string content escapes them), so dropping
      // them keeps the value intact.
      for (char c : result.profileJson)
        if (c != '\n') out += c;
    }
  }
  if (!result.failure.empty()) {
    out += ",";
    out += nl;
    out += "\"failure\": ";
    appendQuoted(out, result.failure);
  }
  out += pretty ? "\n}\n" : "}";
  return out;
}

std::vector<RegressionIssue> compareToBaseline(const BenchResult& result,
                                               const std::string& baselineJson) {
  std::vector<RegressionIssue> issues;
  std::string error;
  std::optional<JsonValue> base = JsonValue::parse(baselineJson, &error);
  if (!base || !base->isObject()) {
    issues.push_back({"<baseline>", "baseline is not valid JSON: " + error});
    return issues;
  }
  const JsonValue* metrics = base->find("metrics");
  if (!metrics || !metrics->isObject()) {
    issues.push_back({"<baseline>", "baseline has no metrics object"});
    return issues;
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!metric.gated) continue;
    const JsonValue* entry = metrics->find(name);
    if (!entry) continue;  // new metric, no baseline yet
    const JsonValue* valueNode = entry->isObject() ? entry->find("value") : entry;
    if (!valueNode || !valueNode->isNumber()) {
      issues.push_back({name, "baseline entry has no numeric value"});
      continue;
    }
    const double baseline = valueNode->asNumber();
    const double value = metric.value;
    switch (metric.direction) {
      case Direction::LowerIsBetter: {
        const double limit = baseline * (1.0 + metric.relTolerance);
        if (value > limit)
          issues.push_back({name, "regressed: " + std::to_string(value) + " > baseline " +
                                      std::to_string(baseline) + " * (1 + " +
                                      std::to_string(metric.relTolerance) + ")"});
        break;
      }
      case Direction::HigherIsBetter: {
        const double limit = baseline * (1.0 - metric.relTolerance);
        if (value < limit)
          issues.push_back({name, "regressed: " + std::to_string(value) + " < baseline " +
                                      std::to_string(baseline) + " * (1 - " +
                                      std::to_string(metric.relTolerance) + ")"});
        break;
      }
      case Direction::Exact: {
        const double eps = 1e-9 * std::max(1.0, std::fabs(baseline));
        if (std::fabs(value - baseline) > eps)
          issues.push_back({name, "exact metric changed: " + std::to_string(value) +
                                      " != baseline " + std::to_string(baseline)});
        break;
      }
    }
  }
  return issues;
}

namespace {

std::vector<std::string>& extraArgsStorage() {
  static std::vector<std::string> args;
  return args;
}

bool readFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[4096];
  std::size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool writeFile(const std::string& path, const std::string& text, const char* mode) {
  FILE* f = std::fopen(path.c_str(), mode);
  if (!f) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool samePath(const std::string& a, const std::string& b) {
  std::error_code ec;
  const std::filesystem::path ca = std::filesystem::weakly_canonical(a, ec);
  if (ec) return a == b;
  const std::filesystem::path cb = std::filesystem::weakly_canonical(b, ec);
  return ec ? a == b : ca == cb;
}

}  // namespace

std::string gitDescribe() {
  std::string git = "unknown";
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p)) {
      git = buf;
      while (!git.empty() && (git.back() == '\n' || git.back() == '\r')) git.pop_back();
    }
    ::pclose(p);
  }
  return git;
}

int runSuite(const Registry& registry, const SuiteOptions& options, std::FILE* out,
             std::FILE* err) {
  const std::string historyPath =
      options.historyPath.empty() ? options.outDir + "/BENCH_history.jsonl" : options.historyPath;
  int exitCode = 0;
  std::size_t regressions = 0;
  for (const BenchSpec& spec : registry.all()) {
    if (!options.only.empty() && spec.name != options.only) continue;
    const char* name = spec.name.c_str();
    std::fprintf(out, "=== %s ===\n", name);
    BenchResult result = runBench(spec);

    const long long now = static_cast<long long>(std::time(nullptr));
    const std::string snapshotPath = options.outDir + "/BENCH_" + spec.name + ".json";
    const std::string baselinePath = options.baselineDir + "/BENCH_" + spec.name + ".json";
    // With --out-dir equal to --baseline-dir (the default) the snapshot
    // lands on the baseline: read the baseline first, and let a failed run
    // (whose metrics are not a measurement of the bench) leave it alone.
    std::string baseline;
    const bool haveBaseline = options.check && readFile(baselinePath, &baseline);
    const bool snapshotIsBaseline = samePath(snapshotPath, baselinePath);
    if ((result.ok || !snapshotIsBaseline) &&
        !writeFile(snapshotPath, renderRecord(spec, result, options.git, now, /*pretty=*/true),
                   "w")) {
      std::fprintf(err, "cannot write snapshot '%s'\n", snapshotPath.c_str());
      return 1;
    }
    if (!writeFile(historyPath,
                   renderRecord(spec, result, options.git, now, /*pretty=*/false) + "\n", "a")) {
      std::fprintf(err, "cannot append history '%s'\n", historyPath.c_str());
      return 1;
    }

    if (!result.ok) {
      std::fprintf(err, "%s: FAILED: %s%s\n", name, result.failure.c_str(),
                   options.updateBaselines || snapshotIsBaseline ? " (baseline not updated)" : "");
      exitCode = 1;
      continue;
    }
    if (!options.check) {
      std::fprintf(out, "%s: ok\n", name);
    } else if (!haveBaseline) {
      std::fprintf(out, "%s: ok (no baseline at %s — recorded, not gated)\n", name,
                   baselinePath.c_str());
    } else if (std::vector<RegressionIssue> issues = compareToBaseline(result, baseline);
               issues.empty()) {
      std::fprintf(out, "%s: ok (within baseline tolerances)\n", name);
    } else {
      std::string what;
      for (const RegressionIssue& issue : issues)
        what += (what.empty() ? "[" : "; [") + issue.metric + "]: " + issue.what;
      std::fprintf(err, "%s: REGRESSION: %s\n", name, what.c_str());
      regressions += issues.size();
    }

    if (options.updateBaselines) {
      if (!writeFile(baselinePath, renderRecord(spec, result, options.git, now, /*pretty=*/true),
                     "w")) {
        std::fprintf(err, "cannot write baseline '%s'\n", baselinePath.c_str());
        return 1;
      }
      std::fprintf(out, "%s: baseline -> %s\n", name, baselinePath.c_str());
    }
  }
  if (regressions) {
    std::fprintf(err, "%zu regression(s) against committed baselines\n", regressions);
    return 2;
  }
  return exitCode;
}

const std::vector<std::string>& extraArgs() { return extraArgsStorage(); }
void setExtraArgs(std::vector<std::string> args) { extraArgsStorage() = std::move(args); }

int standaloneMain(int argc, char** argv) {
  std::string snapshotPath;
  std::vector<std::string> extra;
  for (int k = 1; k < argc; ++k) {
    std::string_view arg = argv[k];
    if (arg.rfind("--", 0) == 0) {
      // Forwarded verbatim (micro-op benches hand --benchmark_* flags to
      // google-benchmark).
      extra.emplace_back(arg);
    } else if (snapshotPath.empty()) {
      snapshotPath = std::string(arg);
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[k]);
      return 2;
    }
  }
  setExtraArgs(std::move(extra));

  const std::string git = gitDescribe();
  int exitCode = 0;
  for (const BenchSpec& spec : Registry::global().all()) {
    BenchResult result = runBench(spec);
    for (const auto& [name, m] : result.metrics)
      std::printf("%s.%s = %g %s\n", spec.name.c_str(), name.c_str(), m.value, m.unit.c_str());
    if (!result.ok) {
      std::fprintf(stderr, "%s: FAILED: %s\n", spec.name.c_str(), result.failure.c_str());
      exitCode = 1;
    }
    if (!snapshotPath.empty()) {
      if (!writeFile(snapshotPath,
                     renderRecord(spec, result, git,
                                  static_cast<long long>(std::time(nullptr)), true),
                     "w")) {
        std::fprintf(stderr, "cannot write snapshot '%s'\n", snapshotPath.c_str());
        return 2;
      }
      std::fprintf(stderr, "snapshot -> %s\n", snapshotPath.c_str());
    }
  }
  return exitCode;
}

}  // namespace panorama::bench
