#include "panorama/interp/interpreter.h"

#include <cmath>
#include <functional>
#include <unordered_map>

namespace panorama {

namespace {

struct InterpAbort {
  std::string message;
};

enum class Sig : std::uint8_t { Normal, Jump, Return, Stop };

/// By-reference binding of a formal scalar.
struct ScalarRef {
  enum class Kind : std::uint8_t { Global, ArrayElem, Temp } kind = Kind::Temp;
  VarId global;                       // Global
  ArrayId array;                      // ArrayElem
  std::vector<std::int64_t> index;    // ArrayElem
  InterpValue temp;                   // Temp (by-value: writes vanish)
};

/// By-reference binding of a formal array.
struct ArrayRef {
  bool known = false;
  ArrayId actual;
  std::vector<std::int64_t> offset;  // formal index + offset = actual index
};

struct Frame {
  const Procedure* proc = nullptr;
  const ProcSymbols* sym = nullptr;
  std::unordered_map<std::string, ScalarRef> scalarFormals;
  std::unordered_map<std::string, ArrayRef> arrayFormals;
};

}  // namespace

class InterpImpl {
 public:
  InterpImpl(Interpreter& host, const Interpreter::Config& cfg)
      : host_(host), cfg_(cfg), program_(host.program_), sema_(host.sema_) {}

  Interpreter::Result run() {
    Interpreter::Result result;
    try {
      seedInputs();
      const Procedure* main = sema_.main;
      if (!main) throw InterpAbort{"no main program"};
      frames_.push_back(Frame{main, &sema_.of(*main), {}, {}});
      Sig s = execBody(main->body);
      (void)s;
      result.ok = true;
    } catch (const InterpAbort& abort) {
      result.error = abort.message;
    }
    result.steps = steps_;
    return result;
  }

 private:
  // ----------------------------------------------------------------- setup
  void seedInputs() {
    for (const auto& [name, value] : cfg_.scalarInputs) {
      if (auto id = sema_.symbols.lookup(name))
        host_.scalars_[*id] = value;
      else
        throw InterpAbort{"unknown scalar input '" + name + "'"};
    }
    for (const auto& [name, elems] : cfg_.arrayInputs) {
      if (auto id = sema_.arrays.lookup(name)) {
        for (const auto& [idx, v] : elems) host_.arrays_[*id][idx] = v;
      } else {
        throw InterpAbort{"unknown array input '" + name + "'"};
      }
    }
  }

  void tick() {
    if (++steps_ > cfg_.maxSteps) throw InterpAbort{"step limit exceeded"};
  }

  Frame& frame() { return frames_.back(); }

  // ------------------------------------------------------------ data model
  InterpValue readScalar(const std::string& name) {
    auto f = frame().scalarFormals.find(name);
    if (f != frame().scalarFormals.end()) {
      switch (f->second.kind) {
        case ScalarRef::Kind::Global: return host_.scalars_[f->second.global];
        case ScalarRef::Kind::ArrayElem:
          return InterpValue::ofReal(readElem(f->second.array, f->second.index));
        case ScalarRef::Kind::Temp: return f->second.temp;
      }
    }
    auto id = frame().sym->scalarId(name);
    if (!id) throw InterpAbort{"read of unknown scalar '" + name + "'"};
    auto it = host_.scalars_.find(*id);
    if (it != host_.scalars_.end()) return it->second;
    // Uninitialized: typed zero.
    switch (frame().sym->typeOf(name)) {
      case BaseType::Integer: return InterpValue::ofInt(0);
      case BaseType::Real: return InterpValue::ofReal(0.0);
      case BaseType::Logical: return InterpValue::ofLogical(false);
    }
    return InterpValue::ofInt(0);
  }

  void writeScalar(const std::string& name, InterpValue v) {
    auto f = frame().scalarFormals.find(name);
    if (f != frame().scalarFormals.end()) {
      switch (f->second.kind) {
        case ScalarRef::Kind::Global:
          host_.scalars_[f->second.global] = coerce(v, sema_.symbols.name(f->second.global));
          return;
        case ScalarRef::Kind::ArrayElem:
          writeElem(f->second.array, f->second.index, v.asReal());
          return;
        case ScalarRef::Kind::Temp:
          f->second.temp = v;
          return;
      }
    }
    auto id = frame().sym->scalarId(name);
    if (!id) throw InterpAbort{"write to unknown scalar '" + name + "'"};
    // Coerce to the declared type.
    switch (frame().sym->typeOf(name)) {
      case BaseType::Integer: host_.scalars_[*id] = InterpValue::ofInt(v.asInt()); break;
      case BaseType::Real: host_.scalars_[*id] = InterpValue::ofReal(v.asReal()); break;
      case BaseType::Logical: host_.scalars_[*id] = InterpValue::ofLogical(v.asLogical()); break;
    }
  }

  InterpValue coerce(InterpValue v, const std::string& /*qualifiedName*/) { return v; }

  /// Resolves a formal-array access to (actual array, shifted index).
  std::pair<ArrayId, std::vector<std::int64_t>> resolveElem(const std::string& name,
                                                            std::vector<std::int64_t> idx) {
    auto f = frame().arrayFormals.find(name);
    if (f != frame().arrayFormals.end()) {
      if (!f->second.known) throw InterpAbort{"unbound array formal '" + name + "'"};
      for (std::size_t d = 0; d < idx.size() && d < f->second.offset.size(); ++d)
        idx[d] += f->second.offset[d];
      return {f->second.actual, std::move(idx)};
    }
    auto id = frame().sym->arrayId(name);
    if (!id) throw InterpAbort{"unknown array '" + name + "'"};
    return {*id, std::move(idx)};
  }

  double readElem(ArrayId array, const std::vector<std::int64_t>& idx) {
    onRead(array, idx);
    auto& store = host_.arrays_[array];
    auto it = store.find(idx);
    return it == store.end() ? 0.0 : it->second;
  }

  void writeElem(ArrayId array, const std::vector<std::int64_t>& idx, double v) {
    onWrite(array, idx);
    host_.arrays_[array][idx] = v;
  }

  // ------------------------------------------------------------ evaluation
  InterpValue eval(const Expr& e) {
    tick();
    switch (e.kind) {
      case Expr::Kind::IntLit: return InterpValue::ofInt(e.intValue);
      case Expr::Kind::RealLit: return InterpValue::ofReal(e.realValue);
      case Expr::Kind::LogicalLit: return InterpValue::ofLogical(e.logicalValue);
      case Expr::Kind::VarRef: return readScalar(e.name);
      case Expr::Kind::ArrayRef: {
        std::vector<std::int64_t> idx;
        for (const ExprPtr& s : e.args) idx.push_back(eval(*s).asInt());
        auto [array, shifted] = resolveElem(e.name, std::move(idx));
        double v = readElem(array, shifted);
        // Integer arrays round-trip through the real store losslessly for
        // the magnitudes the corpus uses.
        if (frame().sym->typeOf(e.name) == BaseType::Integer)
          return InterpValue::ofInt(static_cast<std::int64_t>(v));
        return InterpValue::ofReal(v);
      }
      case Expr::Kind::Intrinsic: return evalIntrinsic(e);
      case Expr::Kind::Unary: {
        InterpValue v = eval(*e.args[0]);
        if (e.unOp == UnOp::Not) return InterpValue::ofLogical(!v.asLogical());
        if (v.type == BaseType::Integer) return InterpValue::ofInt(-v.i);
        return InterpValue::ofReal(-v.asReal());
      }
      case Expr::Kind::Binary: return evalBinary(e);
    }
    throw InterpAbort{"unreachable expression kind"};
  }

  InterpValue evalBinary(const Expr& e) {
    // Short-circuit logicals first.
    if (e.binOp == BinOp::And) {
      if (!eval(*e.args[0]).asLogical()) return InterpValue::ofLogical(false);
      return InterpValue::ofLogical(eval(*e.args[1]).asLogical());
    }
    if (e.binOp == BinOp::Or) {
      if (eval(*e.args[0]).asLogical()) return InterpValue::ofLogical(true);
      return InterpValue::ofLogical(eval(*e.args[1]).asLogical());
    }
    InterpValue a = eval(*e.args[0]);
    InterpValue b = eval(*e.args[1]);
    const bool ints = a.type == BaseType::Integer && b.type == BaseType::Integer;
    switch (e.binOp) {
      case BinOp::Add: return ints ? InterpValue::ofInt(a.i + b.i)
                                   : InterpValue::ofReal(a.asReal() + b.asReal());
      case BinOp::Sub: return ints ? InterpValue::ofInt(a.i - b.i)
                                   : InterpValue::ofReal(a.asReal() - b.asReal());
      case BinOp::Mul: return ints ? InterpValue::ofInt(a.i * b.i)
                                   : InterpValue::ofReal(a.asReal() * b.asReal());
      case BinOp::Div:
        if (ints) {
          if (b.i == 0) throw InterpAbort{"integer division by zero"};
          return InterpValue::ofInt(a.i / b.i);
        }
        return InterpValue::ofReal(a.asReal() / b.asReal());
      case BinOp::Pow:
        if (ints && b.i >= 0) {
          std::int64_t acc = 1;
          for (std::int64_t k = 0; k < b.i; ++k) acc *= a.i;
          return InterpValue::ofInt(acc);
        }
        return InterpValue::ofReal(std::pow(a.asReal(), b.asReal()));
      case BinOp::Lt: return InterpValue::ofLogical(a.asReal() < b.asReal());
      case BinOp::Le: return InterpValue::ofLogical(a.asReal() <= b.asReal());
      case BinOp::Gt: return InterpValue::ofLogical(a.asReal() > b.asReal());
      case BinOp::Ge: return InterpValue::ofLogical(a.asReal() >= b.asReal());
      case BinOp::Eq: return InterpValue::ofLogical(a.asReal() == b.asReal());
      case BinOp::Ne: return InterpValue::ofLogical(a.asReal() != b.asReal());
      default: throw InterpAbort{"unreachable binary op"};
    }
  }

  InterpValue evalIntrinsic(const Expr& e) {
    std::vector<InterpValue> args;
    for (const ExprPtr& a : e.args) args.push_back(eval(*a));
    auto req = [&](std::size_t n) {
      if (args.size() < n) throw InterpAbort{"intrinsic '" + e.name + "' needs arguments"};
    };
    const std::string& n = e.name;
    if (n == "max" || n == "amax1" || n == "max0") {
      req(1);
      InterpValue best = args[0];
      for (const InterpValue& v : args)
        if (v.asReal() > best.asReal()) best = v;
      return best;
    }
    if (n == "min" || n == "amin1" || n == "min0") {
      req(1);
      InterpValue best = args[0];
      for (const InterpValue& v : args)
        if (v.asReal() < best.asReal()) best = v;
      return best;
    }
    if (n == "mod") {
      req(2);
      if (args[0].type == BaseType::Integer && args[1].type == BaseType::Integer) {
        if (args[1].i == 0) throw InterpAbort{"MOD by zero"};
        return InterpValue::ofInt(args[0].i % args[1].i);
      }
      return InterpValue::ofReal(std::fmod(args[0].asReal(), args[1].asReal()));
    }
    if (n == "abs" || n == "iabs" || n == "dabs") {
      req(1);
      if (args[0].type == BaseType::Integer)
        return InterpValue::ofInt(args[0].i < 0 ? -args[0].i : args[0].i);
      return InterpValue::ofReal(std::fabs(args[0].asReal()));
    }
    if (n == "sqrt" || n == "dsqrt") {
      req(1);
      return InterpValue::ofReal(std::sqrt(args[0].asReal()));
    }
    if (n == "exp" || n == "dexp") {
      req(1);
      return InterpValue::ofReal(std::exp(args[0].asReal()));
    }
    if (n == "log" || n == "dlog") {
      req(1);
      return InterpValue::ofReal(std::log(args[0].asReal()));
    }
    if (n == "sin") return req(1), InterpValue::ofReal(std::sin(args[0].asReal()));
    if (n == "cos") return req(1), InterpValue::ofReal(std::cos(args[0].asReal()));
    if (n == "tan") return req(1), InterpValue::ofReal(std::tan(args[0].asReal()));
    if (n == "atan") return req(1), InterpValue::ofReal(std::atan(args[0].asReal()));
    if (n == "int" || n == "nint") return req(1), InterpValue::ofInt(args[0].asInt());
    if (n == "float" || n == "real" || n == "dble")
      return req(1), InterpValue::ofReal(args[0].asReal());
    if (n == "sign") {
      req(2);
      double mag = std::fabs(args[0].asReal());
      return InterpValue::ofReal(args[1].asReal() < 0 ? -mag : mag);
    }
    if (n == "dim") {
      req(2);
      double d = args[0].asReal() - args[1].asReal();
      return InterpValue::ofReal(d > 0 ? d : 0.0);
    }
    throw InterpAbort{"unimplemented intrinsic '" + e.name + "'"};
  }

  // ------------------------------------------------------------- execution
  Sig execBody(const std::vector<StmtPtr>& body) {
    std::unordered_map<int, std::size_t> labels;
    for (std::size_t k = 0; k < body.size(); ++k)
      if (body[k]->label != 0) labels[body[k]->label] = k;

    std::size_t pc = 0;
    while (pc < body.size()) {
      Sig s = execStmt(*body[pc]);
      if (s == Sig::Jump) {
        auto it = labels.find(jumpLabel_);
        if (it == labels.end()) return Sig::Jump;  // outer level resolves it
        pc = it->second;
        // The labeled statement itself executes next — unless it was the
        // jump source (a labeled GOTO would loop; the corpus has none).
        continue;
      }
      if (s == Sig::Return || s == Sig::Stop) return s;
      ++pc;
    }
    return Sig::Normal;
  }

  Sig execStmt(const Stmt& s) {
    tick();
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        InterpValue v = eval(*s.rhs);
        if (s.lhs->kind == Expr::Kind::VarRef) {
          writeScalar(s.lhs->name, v);
        } else {
          std::vector<std::int64_t> idx;
          for (const ExprPtr& sub : s.lhs->args) idx.push_back(eval(*sub).asInt());
          auto [array, shifted] = resolveElem(s.lhs->name, std::move(idx));
          writeElem(array, shifted, v.asReal());
        }
        return Sig::Normal;
      }
      case Stmt::Kind::If: {
        bool c = eval(*s.cond).asLogical();
        return execBody(c ? s.thenBody : s.elseBody);
      }
      case Stmt::Kind::Do:
        return execDo(s);
      case Stmt::Kind::Goto:
        jumpLabel_ = s.gotoLabel;
        return Sig::Jump;
      case Stmt::Kind::Continue:
        return Sig::Normal;
      case Stmt::Kind::Call:
        return execCall(s);
      case Stmt::Kind::Return:
        return Sig::Return;
      case Stmt::Kind::Stop:
        return Sig::Stop;
    }
    return Sig::Normal;
  }

  Sig execDo(const Stmt& s) {
    std::int64_t lo = eval(*s.lo).asInt();
    std::int64_t hi = eval(*s.hi).asInt();
    std::int64_t step = s.step ? eval(*s.step).asInt() : 1;
    if (step == 0) throw InterpAbort{"zero DO step"};
    if (cfg_.privatizeLoop == &s && privatizeNesting_ == 0)
      return execPrivatizedDo(s, lo, hi, step);

    const bool traced = cfg_.traceLoop == &s && traceNesting_ == 0;
    if (traced) {
      ++traceNesting_;
      host_.trace_.loop = &s;
      host_.trace_.loopEntry = snapshotScalars();
    }

    for (std::int64_t v = lo; step > 0 ? v <= hi : v >= hi; v += step) {
      writeScalar(s.doVar, InterpValue::ofInt(v));
      if (traced) beginTracedIteration();
      std::uint64_t stepsBefore = steps_;
      Sig sig = execBody(s.body);
      if (traced) endTracedIteration(steps_ - stepsBefore);
      if (sig == Sig::Jump) {
        if (traced) --traceNesting_;
        return Sig::Jump;  // premature exit: resolved by an enclosing level
      }
      if (sig == Sig::Return || sig == Sig::Stop) {
        if (traced) --traceNesting_;
        return sig;
      }
    }
    if (traced) --traceNesting_;
    return Sig::Normal;
  }

  /// The privatized-execution witness (see Config). Iterations run in a
  /// deterministic shuffled order; each gets fresh private copies of the
  /// privatized arrays; the sequentially-last iteration's copies are the
  /// copy-out values.
  Sig execPrivatizedDo(const Stmt& s, std::int64_t lo, std::int64_t hi, std::int64_t step) {
    std::vector<std::int64_t> iters;
    for (std::int64_t v = lo; step > 0 ? v <= hi : v >= hi; v += step) iters.push_back(v);
    if (iters.empty()) return Sig::Normal;
    const std::int64_t last = iters.back();
    // Deterministic shuffle (LCG-driven Fisher-Yates).
    std::uint64_t state = cfg_.scrambleSeed * 6364136223846793005ull + 1442695040888963407ull;
    for (std::size_t k = iters.size(); k > 1; --k) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(iters[k - 1], iters[(state >> 33) % k]);
    }

    using Store = std::map<std::vector<std::int64_t>, double>;
    std::map<ArrayId, Store> shared;
    std::map<ArrayId, Store> copyOut;
    for (ArrayId a : cfg_.privatizedArrays) shared[a] = host_.arrays_[a];

    ++privatizeNesting_;
    for (std::int64_t v : iters) {
      // Fresh (undefined-reads-as-zero) private copies.
      for (ArrayId a : cfg_.privatizedArrays) host_.arrays_[a].clear();
      writeScalar(s.doVar, InterpValue::ofInt(v));
      Sig sig = execBody(s.body);
      if (sig != Sig::Normal) {
        --privatizeNesting_;
        throw InterpAbort{"privatized loop took a non-normal exit"};
      }
      if (v == last)
        for (ArrayId a : cfg_.privatizedArrays) copyOut[a] = host_.arrays_[a];
    }
    --privatizeNesting_;

    // Copy-out: the last iteration's private values become the live ones.
    for (ArrayId a : cfg_.privatizedArrays) {
      host_.arrays_[a] = shared[a];
      for (const auto& [idx, val] : copyOut[a]) host_.arrays_[a][idx] = val;
    }
    return Sig::Normal;
  }

  Sig execCall(const Stmt& s) {
    const Procedure* callee = program_.findProcedure(s.callee);
    if (!callee) throw InterpAbort{"call to unknown subroutine '" + s.callee + "'"};
    const ProcSymbols& calleeSym = sema_.of(*callee);

    Frame next{callee, &calleeSym, {}, {}};
    for (std::size_t k = 0; k < callee->params.size(); ++k) {
      const std::string& formal = callee->params[k];
      const Expr& actual = *s.args[k];
      if (calleeSym.isArray(formal)) {
        ArrayRef ref;
        if (actual.kind == Expr::Kind::VarRef && frame().sym->isArray(actual.name)) {
          auto resolved = resolveWholeArray(actual.name);
          ref.known = true;
          ref.actual = resolved.first;
          // offset accumulates lower-bound shifts: formal idx + off = actual.
          const ArrayShape& fshape = sema_.arrays.shape(*calleeSym.arrayId(formal));
          const ArrayShape& ashape = sema_.arrays.shape(ref.actual);
          for (int d = 0; d < fshape.rank(); ++d) {
            std::int64_t flb = evalBound(fshape.declaredDims[d].lo, calleeSym, 1);
            std::int64_t alb =
                d < ashape.rank() ? evalBound(ashape.declaredDims[d].lo, calleeSym, 1) : 1;
            std::int64_t chain = d < static_cast<int>(resolved.second.size())
                                     ? resolved.second[d]
                                     : 0;
            ref.offset.push_back(alb - flb + chain);
          }
        } else if (actual.kind == Expr::Kind::ArrayRef && frame().sym->isArray(actual.name)) {
          // Element-offset passing (1-D): formal j -> actual j - lbF + k.
          std::vector<std::int64_t> idx;
          for (const ExprPtr& sub : actual.args) idx.push_back(eval(*sub).asInt());
          auto [array, shifted] = resolveElem(actual.name, std::move(idx));
          ref.known = true;
          ref.actual = array;
          const ArrayShape& fshape = sema_.arrays.shape(*calleeSym.arrayId(formal));
          std::int64_t flb = evalBound(fshape.declaredDims[0].lo, calleeSym, 1);
          ref.offset.push_back(shifted[0] - flb);
        }
        next.arrayFormals.emplace(formal, std::move(ref));
        continue;
      }
      ScalarRef ref;
      if (actual.kind == Expr::Kind::VarRef && frame().sym->isScalar(actual.name)) {
        // Pass through an existing by-ref chain if the actual is itself a
        // formal of the current frame.
        auto chained = frame().scalarFormals.find(actual.name);
        if (chained != frame().scalarFormals.end()) {
          ref = chained->second;
        } else {
          ref.kind = ScalarRef::Kind::Global;
          ref.global = *frame().sym->scalarId(actual.name);
        }
      } else if (actual.kind == Expr::Kind::ArrayRef && frame().sym->isArray(actual.name)) {
        std::vector<std::int64_t> idx;
        for (const ExprPtr& sub : actual.args) idx.push_back(eval(*sub).asInt());
        auto [array, shifted] = resolveElem(actual.name, std::move(idx));
        ref.kind = ScalarRef::Kind::ArrayElem;
        ref.array = array;
        ref.index = std::move(shifted);
      } else {
        ref.kind = ScalarRef::Kind::Temp;
        ref.temp = eval(actual);
      }
      next.scalarFormals.emplace(formal, std::move(ref));
    }

    frames_.push_back(std::move(next));
    Sig sig = execBody(callee->body);
    frames_.pop_back();
    if (sig == Sig::Jump) throw InterpAbort{"GOTO escaped subroutine '" + s.callee + "'"};
    if (sig == Sig::Stop) return Sig::Stop;
    return Sig::Normal;
  }

  /// Resolves an array name through the frame's formal chain.
  std::pair<ArrayId, std::vector<std::int64_t>> resolveWholeArray(const std::string& name) {
    auto f = frame().arrayFormals.find(name);
    if (f != frame().arrayFormals.end()) {
      if (!f->second.known) throw InterpAbort{"unbound array formal '" + name + "'"};
      return {f->second.actual, f->second.offset};
    }
    return {*frame().sym->arrayId(name), {}};
  }

  std::int64_t evalBound(const SymExpr& e, const ProcSymbols& sym, std::int64_t dflt) {
    (void)sym;
    if (auto c = e.constantValue()) return *c;
    // Symbolic declared bound: evaluate under current scalars.
    Binding b;
    for (const auto& [vid, val] : host_.scalars_)
      if (val.type == BaseType::Integer) b[vid] = val.i;
    if (auto v = e.evaluate(b)) return *v;
    return dflt;
  }

  // ---------------------------------------------------------------- tracing
  Binding snapshotScalars() const {
    Binding entry;
    for (const auto& [vid, val] : host_.scalars_) {
      if (val.type == BaseType::Integer)
        entry[vid] = val.i;
      else if (val.type == BaseType::Logical)
        entry[vid] = val.l ? 1 : 0;
      else if (val.r == static_cast<double>(static_cast<std::int64_t>(val.r)))
        entry[vid] = static_cast<std::int64_t>(val.r);
    }
    return entry;
  }

  void beginTracedIteration() {
    LoopTrace& t = host_.trace_;
    t.iterEntry.push_back(snapshotScalars());
    t.modPerIter.emplace_back();
    t.uePerIter.emplace_back();
    iterActive_ = true;
  }

  void endTracedIteration(std::uint64_t ops) {
    host_.trace_.iterOps.push_back(ops);
    iterActive_ = false;
  }

  void onRead(ArrayId array, const std::vector<std::int64_t>& idx) {
    if (!iterActive_) return;
    LoopTrace& t = host_.trace_;
    auto& mod = t.modPerIter.back()[array];
    if (!mod.count(idx)) t.uePerIter.back()[array].insert(idx);
    if (!t.modWhole[array].count(idx)) t.ueWhole[array].insert(idx);
  }

  void onWrite(ArrayId array, const std::vector<std::int64_t>& idx) {
    if (!iterActive_) return;
    LoopTrace& t = host_.trace_;
    t.modPerIter.back()[array].insert(idx);
    t.modWhole[array].insert(idx);
  }

  Interpreter& host_;
  const Interpreter::Config& cfg_;
  const Program& program_;
  const SemaResult& sema_;
  std::vector<Frame> frames_;
  std::uint64_t steps_ = 0;
  int jumpLabel_ = 0;
  int traceNesting_ = 0;
  int privatizeNesting_ = 0;
  bool iterActive_ = false;
};

Interpreter::Interpreter(const Program& program, const SemaResult& sema)
    : program_(program), sema_(sema) {}

Interpreter::Result Interpreter::run(const Config& config) {
  trace_ = LoopTrace{};
  arrays_.clear();
  scalars_.clear();
  InterpImpl impl(*this, config);
  return impl.run();
}

}  // namespace panorama
