// A concrete interpreter for the Fortran subset. Two jobs:
//
//   * validation oracle — trace the element-level per-iteration MOD/UE sets
//     of a chosen loop and the scalar environment at each iteration entry,
//     so the analyzer's symbolic summaries can be checked against ground
//     truth (analysis results evaluated under the traced bindings must
//     match exactly when decidable, and over-approximate otherwise);
//   * cost model input — per-iteration operation counts feed the simulated
//     multiprocessor (machine_model.h) that stands in for the paper's
//     Alliant FX/8 measurements.
//
// Semantics notes: call-by-reference (scalars, whole arrays, and
// element-offset actuals), COMMON via the shared global stores, GOTO within
// a nesting level plus premature loop exits, uninitialized scalars read as
// zero (the corpus never relies on uninitialized data).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "panorama/ast/sema.h"

namespace panorama {

using ElementSet = std::set<std::vector<std::int64_t>>;

struct InterpValue {
  BaseType type = BaseType::Integer;
  std::int64_t i = 0;
  double r = 0.0;
  bool l = false;

  static InterpValue ofInt(std::int64_t v) { return {BaseType::Integer, v, 0.0, false}; }
  static InterpValue ofReal(double v) { return {BaseType::Real, 0, v, false}; }
  static InterpValue ofLogical(bool v) { return {BaseType::Logical, 0, 0.0, v}; }

  double asReal() const { return type == BaseType::Integer ? static_cast<double>(i) : r; }
  std::int64_t asInt() const {
    return type == BaseType::Integer ? i : static_cast<std::int64_t>(r);
  }
  bool asLogical() const { return type == BaseType::Logical ? l : asInt() != 0; }
};

/// Ground truth collected for one loop.
struct LoopTrace {
  const Stmt* loop = nullptr;
  /// Scalar environment (integers and logicals) at the loop's entry — the
  /// frame the analyzer's summaries are expressed in (loop-entry values for
  /// scalars, plus the iteration index).
  Binding loopEntry;
  /// Scalar environment at each iteration's entry, including the iteration's
  /// index value (loop-variant scalars differ from `loopEntry` here).
  std::vector<Binding> iterEntry;
  std::vector<std::map<ArrayId, ElementSet>> modPerIter;
  std::vector<std::map<ArrayId, ElementSet>> uePerIter;
  std::map<ArrayId, ElementSet> modWhole;
  std::map<ArrayId, ElementSet> ueWhole;
  std::vector<std::uint64_t> iterOps;  ///< expression-node evaluations per iteration
};

class Interpreter {
 public:
  struct Config {
    /// Initial values for scalars, keyed by qualified name ("proc::x").
    std::map<std::string, InterpValue> scalarInputs;
    /// Initial array element values, keyed by qualified name.
    std::map<std::string, std::map<std::vector<std::int64_t>, double>> arrayInputs;
    std::uint64_t maxSteps = 50'000'000;
    const Stmt* traceLoop = nullptr;  ///< outermost loop to trace (optional)

    // Privatized-execution witness: run `privatizeLoop`'s iterations in a
    // scrambled order, giving each iteration fresh private copies of
    // `privatizedArrays` and copying the sequentially-last iteration's
    // values out afterwards. If the analysis privatized correctly, final
    // memory matches the serial run bit for bit; if it privatized wrongly,
    // the scrambling exposes it.
    const Stmt* privatizeLoop = nullptr;
    std::vector<ArrayId> privatizedArrays;
    unsigned scrambleSeed = 1;
  };

  struct Result {
    bool ok = false;
    std::string error;
    std::uint64_t steps = 0;  ///< total expression-node evaluations
  };

  Interpreter(const Program& program, const SemaResult& sema);

  Result run(const Config& config);

  const LoopTrace& trace() const { return trace_; }
  /// Final array contents (for serial-vs-transformed comparisons).
  const std::map<ArrayId, std::map<std::vector<std::int64_t>, double>>& arrays() const {
    return arrays_;
  }
  const std::map<VarId, InterpValue>& scalars() const { return scalars_; }

 private:
  friend class InterpImpl;
  const Program& program_;
  const SemaResult& sema_;
  LoopTrace trace_;
  std::map<ArrayId, std::map<std::vector<std::int64_t>, double>> arrays_;
  std::map<VarId, InterpValue> scalars_;
};

}  // namespace panorama
