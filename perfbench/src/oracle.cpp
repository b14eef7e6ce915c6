// The benchmark's correctness oracle. It runs outside every timed section
// and feeds `verdict_errors`; see perfbench/README.md for what it checks.
#include <algorithm>

#include "bench.h"
#include "panorama/corpus/corpus.h"

namespace perfbench {

using panorama::CorpusLoop;
using panorama::LoopAnalysis;

LoopVerdict verdictOf(const LoopAnalysis& la) {
  LoopVerdict v{la.procName, la.line, la.classification, {}};
  for (const panorama::ArrayPrivatization& ap : la.arrays)
    if (ap.privatizable) v.privatizable.push_back(ap.name);
  std::sort(v.privatizable.begin(), v.privatizable.end());
  return v;
}

std::uint64_t hashReport(const std::string& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char ch : report) h = (h ^ ch) * 0x100000001b3ull;
  return h;
}

std::size_t countTableErrors(const std::vector<std::vector<LoopVerdict>>& perKernel,
                             const std::vector<int>& lines) {
  const std::vector<CorpusLoop>& corpus = panorama::perfectCorpus();
  std::size_t errors = 0;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const CorpusLoop& cl = corpus[k];
    const LoopVerdict* found = nullptr;
    if (k < perKernel.size() && k < lines.size())
      for (const LoopVerdict& v : perKernel[k])
        if (v.proc == cl.routine && v.line == lines[k]) found = &v;
    auto privatized = [&](const std::string& name) {
      return std::binary_search(found->privatizable.begin(), found->privatizable.end(), name);
    };
    bool ok = found != nullptr;
    if (ok)
      for (const std::string& name : cl.privatizable) ok = ok && privatized(name);
    if (ok)
      for (const std::string& name : cl.notPrivatizable) ok = ok && !privatized(name);
    if (!ok) ++errors;
  }
  return errors;
}

std::size_t countTemplateErrors(const std::vector<ExpectedLoop>& expected,
                                const std::vector<LoopVerdict>& verdicts) {
  std::size_t errors = 0;
  std::size_t matched = 0;
  for (const ExpectedLoop& e : expected) {
    auto it = std::find_if(verdicts.begin(), verdicts.end(), [&](const LoopVerdict& v) {
      return v.proc == e.proc && v.line == e.line;
    });
    if (it == verdicts.end()) {
      ++errors;
      continue;
    }
    ++matched;
    if (it->classification != e.classification || it->privatizable != e.privatizable) ++errors;
  }
  // Loops the templates do not contain.
  return errors + (verdicts.size() - std::min(verdicts.size(), matched));
}

std::size_t countMismatches(const std::vector<std::uint64_t>& reference,
                            const std::vector<std::uint64_t>& sample) {
  const std::size_t common = std::min(reference.size(), sample.size());
  std::size_t errors = std::max(reference.size(), sample.size()) - common;
  for (std::size_t k = 0; k < common; ++k)
    if (reference[k] != sample[k]) ++errors;
  return errors;
}

std::vector<std::string> splitLoopReports(const std::string& composed) {
  // Header line, blank line, then one block per loop terminated by "\n\n".
  std::vector<std::string> out;
  std::size_t pos = composed.find("\n\n");
  if (pos == std::string::npos) return out;
  pos += 2;
  while (pos < composed.size()) {
    std::size_t end = composed.find("\n\n", pos);
    if (end == std::string::npos) {
      out.push_back(composed.substr(pos));
      break;
    }
    out.push_back(composed.substr(pos, end + 1 - pos));
    pos = end + 2;
  }
  return out;
}

}  // namespace perfbench
