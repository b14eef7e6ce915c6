// Seeded program generator for the `wide` and `edit` workloads.
//
// Every procedure comes from a template whose loop verdicts are known by
// construction, so the oracle can check each generated loop without trusting
// the analyzer under test. Line numbers are tracked while rendering, which
// keys each expected verdict by (procedure, DO line) exactly as reports cite.
#include <algorithm>
#include <string>

#include "bench.h"

namespace perfbench {

using panorama::LoopClass;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {

/// Appends source lines and records the expected verdict of each DO it emits.
class Writer {
 public:
  Writer(std::string& out, std::vector<ExpectedLoop>* expected, int& line)
      : out_(out), expected_(expected), line_(line) {}

  void put(const std::string& text) {
    out_ += text;
    out_ += '\n';
    ++line_;
  }

  void loop(const std::string& proc, const std::string& header, LoopClass cls,
            std::vector<std::string> privatizable = {}) {
    if (expected_) expected_->push_back({proc, line_, cls, std::move(privatizable)});
    put(header);
  }

 private:
  std::string& out_;
  std::vector<ExpectedLoop>* expected_;
  int& line_;
};

void render(const ProcSpec& p, Writer& w) {
  const std::string c = std::to_string(p.coef);
  const std::string& n = p.name;
  w.put("c     " + n + " revision " + std::to_string(p.revision));
  switch (p.kind) {
    case Template::Leaf:
      w.put("      subroutine " + n + "(w, m, k)");
      w.put("      integer m, k");
      w.put("      real w(100)");
      w.loop(n, "      do j = 1, m", LoopClass::Parallel);
      w.put("        w(j) = k + j * " + c);
      w.put("      enddo");
      break;
    case Template::WorkArray:
      w.put("      subroutine " + n + "(a, n, m)");
      w.put("      integer n, m");
      w.put("      real a(100, 100)");
      w.put("      real w(100)");
      w.loop(n, "      do i = 1, n", LoopClass::ParallelAfterPrivatization, {"w"});
      w.loop(n, "        do j = 1, m", LoopClass::Parallel);
      w.put("          w(j) = a(j, i) * " + c + ".0");
      w.put("        enddo");
      w.loop(n, "        do j = 1, m", LoopClass::Parallel);
      w.put("          a(j, i) = w(j) + 1.0");
      w.put("        enddo");
      w.put("      enddo");
      break;
    case Template::GuardedIf:
      w.put("      subroutine " + n + "(a, n, m, flag)");
      w.put("      integer n, m");
      w.put("      logical flag");
      w.put("      real a(100, 100)");
      w.put("      real w(100)");
      w.loop(n, "      do i = 1, n", LoopClass::ParallelAfterPrivatization, {"w"});
      w.put("        if (flag) then");
      w.loop(n, "          do j = 1, m", LoopClass::Parallel);
      w.put("            w(j) = a(j, i) + " + c + ".0");
      w.put("          enddo");
      w.put("        endif");
      w.put("        if (flag) then");
      w.loop(n, "          do j = 1, m", LoopClass::Parallel);
      w.put("            a(j, i) = w(j) * 2.0");
      w.put("          enddo");
      w.put("        endif");
      w.put("      enddo");
      break;
    case Template::Symbolic:
      w.put("      subroutine " + n + "(a, n, lo, hi)");
      w.put("      integer n, lo, hi");
      w.put("      real a(100, 100)");
      w.put("      real w(100)");
      w.loop(n, "      do i = 1, n", LoopClass::ParallelAfterPrivatization, {"w"});
      w.loop(n, "        do j = lo, hi", LoopClass::Parallel);
      w.put("          w(j) = a(j, i) - " + c + ".0");
      w.put("        enddo");
      w.loop(n, "        do j = lo, hi", LoopClass::Parallel);
      w.put("          a(j, i) = w(j) + w(j)");
      w.put("        enddo");
      w.put("      enddo");
      break;
    case Template::CallsLeaf:
      w.put("      subroutine " + n + "(a, n, m)");
      w.put("      integer n, m");
      w.put("      real a(100, 100)");
      w.put("      real w(100)");
      w.loop(n, "      do i = 1, n", LoopClass::ParallelAfterPrivatization, {"w"});
      w.put("        call " + p.callee + "(w, m, i)");
      w.loop(n, "        do j = 1, m", LoopClass::Parallel);
      w.put("          a(j, i) = w(j) + " + c + ".0");
      w.put("        enddo");
      w.put("      enddo");
      break;
    case Template::Recurrence:
      w.put("      subroutine " + n + "(a, n, m)");
      w.put("      integer n, m");
      w.put("      real a(100, 100)");
      w.loop(n, "      do i = 2, n", LoopClass::Serial);
      w.loop(n, "        do j = 1, m", LoopClass::Parallel);
      w.put("          a(j, i) = a(j, i - 1) + " + c + ".0");
      w.put("        enddo");
      w.put("      enddo");
      break;
  }
  w.put("      end");
  w.put("");
}

std::string renderProject(const Project& project, std::vector<ExpectedLoop>* expected) {
  std::string out;
  int line = 1;
  Writer w(out, expected, line);
  w.put("      program wide");
  w.put("      end");
  w.put("");
  for (const ProcSpec& p : project.procs) render(p, w);
  return out;
}

int nextCoef(int coef) { return coef % 9 + 2; }  // cycles 2..10, never equal

}  // namespace

std::string Project::text() const { return renderProject(*this, nullptr); }

std::vector<ExpectedLoop> Project::expected() const {
  std::vector<ExpectedLoop> out;
  renderProject(*this, &out);
  return out;
}

Project generateWide(std::uint64_t seed, int procedures) {
  const int leaves = std::max(1, procedures / 16);
  std::uint64_t state = mix(seed);
  auto next = [&state] { return state = mix(state); };

  Project project;
  for (int k = 0; k < leaves; ++k)
    project.procs.push_back({"lf" + std::to_string(k), Template::Leaf,
                             static_cast<int>(next() % 9) + 2, 0, ""});
  static constexpr Template kBodies[] = {Template::WorkArray, Template::GuardedIf,
                                         Template::Symbolic, Template::CallsLeaf,
                                         Template::Recurrence};
  for (int k = leaves; k < procedures; ++k) {
    ProcSpec p;
    // Equal template counts keep the work of a project nearly independent
    // of the seed; the seed varies order, constants and callees.
    p.kind = kBodies[(k - leaves) % 5];
    p.name = "p" + std::to_string(k);
    p.coef = static_cast<int>(next() % 9) + 2;
    if (p.kind == Template::CallsLeaf) p.callee = "lf" + std::to_string(next() % leaves);
    project.procs.push_back(std::move(p));
  }
  // Fisher-Yates, so leaves and callers interleave in file order.
  for (std::size_t k = project.procs.size(); k > 1; --k)
    std::swap(project.procs[k - 1], project.procs[next() % k]);
  return project;
}

EditKind applyEdit(Project& project, std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t r = mix(mix(seed) ^ (index * 0x2545f4914f6cdd1dull));
  const std::uint64_t pick = mix(r);
  std::vector<std::size_t> leaves;
  std::vector<std::size_t> bodies;
  for (std::size_t k = 0; k < project.procs.size(); ++k)
    (project.procs[k].kind == Template::Leaf ? leaves : bodies).push_back(k);
  // Two in four edits change one loop's constant, one a leaf callee, one a
  // comment.
  switch (r % 4) {
    case 0:
    case 1: {
      ProcSpec& p = project.procs[bodies[pick % bodies.size()]];
      p.coef = nextCoef(p.coef);
      return EditKind::LoopConstant;
    }
    case 2: {
      ProcSpec& p = project.procs[leaves[pick % leaves.size()]];
      p.coef = nextCoef(p.coef);
      return EditKind::LeafCallee;
    }
    default:
      ++project.procs[pick % project.procs.size()].revision;
      return EditKind::CommentOnly;
  }
}

}  // namespace perfbench
