#include "jvm/interpreter.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace javaflow::jvm {

using bytecode::CpEntry;
using bytecode::Group;
using bytecode::Instruction;
using bytecode::Method;
using bytecode::Op;
using bytecode::Program;
using bytecode::SwitchTable;
using bytecode::ValueType;

namespace {

std::int32_t wrap32(std::int64_t v) { return static_cast<std::int32_t>(v); }

std::int32_t idiv_checked(std::int32_t a, std::int32_t b) {
  if (b == 0) throw JvmException("ArithmeticException: / by zero");
  if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return a;
  return a / b;
}

std::int32_t irem_checked(std::int32_t a, std::int32_t b) {
  if (b == 0) throw JvmException("ArithmeticException: % by zero");
  if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return 0;
  return a % b;
}

std::int64_t ldiv_checked(std::int64_t a, std::int64_t b) {
  if (b == 0) throw JvmException("ArithmeticException: / by zero");
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
  return a / b;
}

std::int64_t lrem_checked(std::int64_t a, std::int64_t b) {
  if (b == 0) throw JvmException("ArithmeticException: % by zero");
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return 0;
  return a % b;
}

// JVM f2i/d2i saturating conversion semantics.
std::int32_t fp2i(double d) {
  if (std::isnan(d)) return 0;
  if (d >= 2147483647.0) return std::numeric_limits<std::int32_t>::max();
  if (d <= -2147483648.0) return std::numeric_limits<std::int32_t>::min();
  return static_cast<std::int32_t>(d);
}

std::int64_t fp2l(double d) {
  if (std::isnan(d)) return 0;
  if (d >= 9223372036854775807.0) {
    return std::numeric_limits<std::int64_t>::max();
  }
  if (d <= -9223372036854775808.0) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return static_cast<std::int64_t>(d);
}

// One activation of a bytecode method on run()'s frame stack.
struct Frame {
  const Method* method = nullptr;
  std::vector<Instruction>* code = nullptr;
  std::vector<Value> locals;
  std::vector<Value> stack;
  Profiler::MethodStats* prof = nullptr;
  std::size_t pc = 0;  // a suspended caller's resume point
  bool push_result = false;  // the call site takes the return value
};

}  // namespace

Interpreter::Interpreter(Program& program, Profiler* profiler)
    : Interpreter(program, profiler, Options{}) {}

Interpreter::Interpreter(Program& program, Profiler* profiler,
                         Options options)
    : program_(program), profiler_(profiler), options_(options) {
  register_default_intrinsics();
}

void Interpreter::register_intrinsic(const std::string& qualified_name,
                                     Intrinsic fn) {
  intrinsics_[qualified_name] = std::move(fn);
}

void Interpreter::register_default_intrinsics() {
  auto fp1 = [](double (*f)(double)) {
    return [f](Interpreter&, const std::vector<Value>& a) {
      return Value::make_double(f(a.at(0).as_fp()));
    };
  };
  register_intrinsic("java.lang.Math.sqrt(D)D", fp1(std::sqrt));
  register_intrinsic("java.lang.Math.log(D)D", fp1(std::log));
  register_intrinsic("java.lang.Math.exp(D)D", fp1(std::exp));
  register_intrinsic("java.lang.Math.sin(D)D", fp1(std::sin));
  register_intrinsic("java.lang.Math.cos(D)D", fp1(std::cos));
  register_intrinsic("java.lang.Math.floor(D)D", fp1(std::floor));
  register_intrinsic("java.lang.Math.abs(D)D", fp1(std::fabs));
  register_intrinsic(
      "java.lang.Math.pow(DD)D",
      [](Interpreter&, const std::vector<Value>& a) {
        return Value::make_double(std::pow(a.at(0).as_fp(), a.at(1).as_fp()));
      });
  register_intrinsic(
      "java.lang.Math.min(II)I",
      [](Interpreter&, const std::vector<Value>& a) {
        return Value::make_int(std::min(a.at(0).as_int(), a.at(1).as_int()));
      });
  register_intrinsic(
      "java.lang.Math.max(II)I",
      [](Interpreter&, const std::vector<Value>& a) {
        return Value::make_int(std::max(a.at(0).as_int(), a.at(1).as_int()));
      });
  register_intrinsic(
      "java.lang.System.arraycopy(AIAII)V",
      [](Interpreter& vm, const std::vector<Value>& a) {
        const Ref src = a.at(0).as_ref();
        const std::int32_t src_pos = a.at(1).as_int();
        const Ref dst = a.at(2).as_ref();
        const std::int32_t dst_pos = a.at(3).as_int();
        const std::int32_t len = a.at(4).as_int();
        for (std::int32_t k = 0; k < len; ++k) {
          vm.heap().array_set(dst, dst_pos + k,
                              vm.heap().array_get(src, src_pos + k));
        }
        return Value::make_default(ValueType::Void);
      });
}

std::vector<Instruction>& Interpreter::code_for(const Method& m) {
  auto it = code_cache_.find(&m);
  if (it == code_cache_.end()) {
    it = code_cache_.emplace(&m, m.code).first;
  }
  return it->second;
}

Value Interpreter::invoke(const std::string& qualified_name,
                          std::vector<Value> args) {
  const Method* m = program_.find(qualified_name);
  if (m == nullptr) {
    throw std::runtime_error("invoke: unknown method " + qualified_name);
  }
  return invoke(*m, std::move(args));
}

Value Interpreter::invoke(const Method& m, std::vector<Value> args) {
  return run(m, std::move(args));
}

Value Interpreter::run(const Method& entry, std::vector<Value> args) {
  // `cur` is the running activation; `callers` holds the suspended ones,
  // innermost last. `locals` and `stack` name cur's members, so they
  // follow every frame switch.
  Frame cur;
  std::vector<Frame> callers;
  std::vector<Value>& locals = cur.locals;
  std::vector<Value>& stack = cur.stack;

  // Makes `m` the running activation, at the depth of callers.size().
  auto enter = [&](const Method& m, std::vector<Value> args_in,
                   bool push_result) {
    if (static_cast<std::int64_t>(callers.size()) >
        options_.max_call_depth) {
      throw JvmException("StackOverflowError");
    }
    args_in.resize(m.max_locals, Value::make_int(0));
    cur = Frame{&m, &code_for(m), std::move(args_in), {}, nullptr, 0,
                push_result};
    stack.reserve(m.max_stack);
    if (profiler_ != nullptr) {
      cur.prof = &profiler_->stats(m.name, m.benchmark);
      ++cur.prof->invocations;
    }
  };

  auto push = [&stack](Value v) { stack.push_back(v); };
  auto pop = [&stack]() {
    Value v = stack.back();
    stack.pop_back();
    return v;
  };

  enter(entry, std::move(args), false);
  std::size_t pc = 0;
  while (true) {
    const Method& m = *cur.method;
    if (++steps_ > options_.max_steps) {
      throw std::runtime_error("interpreter step budget exhausted in " +
                               m.name);
    }
    Instruction& inst = (*cur.code)[pc];
    if (cur.prof != nullptr) Profiler::record_op(*cur.prof, inst.op);
    std::size_t next = pc + 1;

    switch (inst.op) {
      case Op::nop:
        break;

      // ---- constants ----
      case Op::aconst_null: push(Value::make_ref(kNull)); break;
      case Op::iconst_m1: push(Value::make_int(-1)); break;
      case Op::iconst_0: push(Value::make_int(0)); break;
      case Op::iconst_1: push(Value::make_int(1)); break;
      case Op::iconst_2: push(Value::make_int(2)); break;
      case Op::iconst_3: push(Value::make_int(3)); break;
      case Op::iconst_4: push(Value::make_int(4)); break;
      case Op::iconst_5: push(Value::make_int(5)); break;
      case Op::lconst_0: push(Value::make_long(0)); break;
      case Op::lconst_1: push(Value::make_long(1)); break;
      case Op::fconst_0: push(Value::make_float(0.0)); break;
      case Op::fconst_1: push(Value::make_float(1.0)); break;
      case Op::fconst_2: push(Value::make_float(2.0)); break;
      case Op::dconst_0: push(Value::make_double(0.0)); break;
      case Op::dconst_1: push(Value::make_double(1.0)); break;
      case Op::bipush:
      case Op::sipush:
        push(Value::make_int(inst.operand));
        break;

      // ---- constant pool loads (with _Quick rewriting) ----
      case Op::ldc:
      case Op::ldc_w:
      case Op::ldc2_w:
        inst.op = bytecode::quick_form(inst.op);
        [[fallthrough]];
      case Op::ldc_quick:
      case Op::ldc_w_quick:
      case Op::ldc2_w_quick: {
        const CpEntry& e = program_.pool.at(inst.operand);
        switch (e.kind) {
          case CpEntry::Kind::Int: push(Value::make_int(wrap32(e.i))); break;
          case CpEntry::Kind::Long: push(Value::make_long(e.i)); break;
          case CpEntry::Kind::Float: push(Value::make_float(e.d)); break;
          case CpEntry::Kind::Double: push(Value::make_double(e.d)); break;
          case CpEntry::Kind::Str:
            push(Value::make_ref(heap_.new_string(e.s)));
            break;
          default:
            throw std::runtime_error("ldc of non-constant pool entry");
        }
        break;
      }

      // ---- locals ----
      case Op::iload: case Op::lload: case Op::fload: case Op::dload:
      case Op::aload:
        push(locals[static_cast<std::size_t>(inst.operand)]);
        break;
      case Op::iload_0: case Op::lload_0: case Op::fload_0: case Op::dload_0:
      case Op::aload_0:
        push(locals[0]);
        break;
      case Op::iload_1: case Op::lload_1: case Op::fload_1: case Op::dload_1:
      case Op::aload_1:
        push(locals[1]);
        break;
      case Op::iload_2: case Op::lload_2: case Op::fload_2: case Op::dload_2:
      case Op::aload_2:
        push(locals[2]);
        break;
      case Op::iload_3: case Op::lload_3: case Op::fload_3: case Op::dload_3:
      case Op::aload_3:
        push(locals[3]);
        break;
      case Op::istore: case Op::lstore: case Op::fstore: case Op::dstore:
      case Op::astore:
        locals[static_cast<std::size_t>(inst.operand)] = pop();
        break;
      case Op::istore_0: case Op::lstore_0: case Op::fstore_0:
      case Op::dstore_0: case Op::astore_0:
        locals[0] = pop();
        break;
      case Op::istore_1: case Op::lstore_1: case Op::fstore_1:
      case Op::dstore_1: case Op::astore_1:
        locals[1] = pop();
        break;
      case Op::istore_2: case Op::lstore_2: case Op::fstore_2:
      case Op::dstore_2: case Op::astore_2:
        locals[2] = pop();
        break;
      case Op::istore_3: case Op::lstore_3: case Op::fstore_3:
      case Op::dstore_3: case Op::astore_3:
        locals[3] = pop();
        break;
      case Op::iinc: {
        Value& v = locals[static_cast<std::size_t>(inst.operand)];
        v = Value::make_int(wrap32(static_cast<std::int64_t>(v.as_int()) +
                                   inst.operand2));
        break;
      }

      // ---- array reads ----
      case Op::iaload: case Op::laload: case Op::faload: case Op::daload:
      case Op::aaload: case Op::baload: case Op::caload: case Op::saload: {
        const std::int32_t idx = pop().as_int();
        const Ref arr = pop().as_ref();
        push(heap_.array_get(arr, idx));
        break;
      }

      // ---- array writes ----
      case Op::iastore: case Op::lastore: case Op::fastore: case Op::dastore:
      case Op::aastore: {
        const Value v = pop();
        const std::int32_t idx = pop().as_int();
        const Ref arr = pop().as_ref();
        heap_.array_set(arr, idx, v);
        break;
      }
      case Op::bastore: {
        const Value v = pop();
        const std::int32_t idx = pop().as_int();
        const Ref arr = pop().as_ref();
        heap_.array_set(
            arr, idx,
            Value::make_int(static_cast<std::int8_t>(v.as_int())));
        break;
      }
      case Op::castore: {
        const Value v = pop();
        const std::int32_t idx = pop().as_int();
        const Ref arr = pop().as_ref();
        heap_.array_set(
            arr, idx,
            Value::make_int(static_cast<std::uint16_t>(v.as_int())));
        break;
      }
      case Op::sastore: {
        const Value v = pop();
        const std::int32_t idx = pop().as_int();
        const Ref arr = pop().as_ref();
        heap_.array_set(
            arr, idx,
            Value::make_int(static_cast<std::int16_t>(v.as_int())));
        break;
      }

      // ---- stack moves ----
      case Op::pop: (void)pop(); break;
      case Op::pop2: (void)pop(); (void)pop(); break;
      case Op::dup: {
        const Value x = stack.back();
        push(x);
        break;
      }
      case Op::dup_x1: {
        const Value x = pop();
        const Value y = pop();
        push(x); push(y); push(x);
        break;
      }
      case Op::dup_x2: {
        const Value x = pop();
        const Value y = pop();
        const Value z = pop();
        push(x); push(z); push(y); push(x);
        break;
      }
      case Op::dup2: {
        const Value x = pop();
        const Value y = pop();
        push(y); push(x); push(y); push(x);
        break;
      }
      case Op::dup2_x1: {
        const Value x = pop();
        const Value y = pop();
        const Value z = pop();
        push(y); push(x); push(z); push(y); push(x);
        break;
      }
      case Op::dup2_x2: {
        const Value x = pop();
        const Value y = pop();
        const Value z = pop();
        const Value w = pop();
        push(y); push(x); push(w); push(z); push(y); push(x);
        break;
      }
      case Op::swap: {
        const Value x = pop();
        const Value y = pop();
        push(x); push(y);
        break;
      }

      // ---- integer arithmetic ----
#define JF_IBIN(opname, expr)                                           \
  case Op::opname: {                                                    \
    const std::int32_t b = pop().as_int();                              \
    const std::int32_t a = pop().as_int();                              \
    (void)a; (void)b;                                                   \
    push(Value::make_int(expr));                                        \
    break;                                                              \
  }
      JF_IBIN(iadd, wrap32(std::int64_t{a} + b))
      JF_IBIN(isub, wrap32(std::int64_t{a} - b))
      JF_IBIN(imul, wrap32(std::int64_t{a} * b))
      JF_IBIN(idiv, idiv_checked(a, b))
      JF_IBIN(irem, irem_checked(a, b))
      JF_IBIN(iand, a & b)
      JF_IBIN(ior, a | b)
      JF_IBIN(ixor, a ^ b)
      JF_IBIN(ishl, wrap32(static_cast<std::int64_t>(
                        static_cast<std::uint32_t>(a) << (b & 31))))
      JF_IBIN(ishr, a >> (b & 31))
      JF_IBIN(iushr, static_cast<std::int32_t>(
                         static_cast<std::uint32_t>(a) >> (b & 31)))
#undef JF_IBIN
      case Op::ineg:
        push(Value::make_int(wrap32(-std::int64_t{pop().as_int()})));
        break;

      // ---- long arithmetic ----
#define JF_LBIN(opname, expr)                                           \
  case Op::opname: {                                                    \
    const std::int64_t b = pop().as_long();                             \
    const std::int64_t a = pop().as_long();                             \
    (void)a; (void)b;                                                   \
    push(Value::make_long(expr));                                       \
    break;                                                              \
  }
      JF_LBIN(ladd, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(a) +
                        static_cast<std::uint64_t>(b)))
      JF_LBIN(lsub, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(a) -
                        static_cast<std::uint64_t>(b)))
      JF_LBIN(lmul, static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(a) *
                        static_cast<std::uint64_t>(b)))
      JF_LBIN(ldiv_, ldiv_checked(a, b))
      JF_LBIN(lrem, lrem_checked(a, b))
      JF_LBIN(land, a & b)
      JF_LBIN(lor, a | b)
      JF_LBIN(lxor, a ^ b)
#undef JF_LBIN
      case Op::lneg:
        push(Value::make_long(static_cast<std::int64_t>(
            -static_cast<std::uint64_t>(pop().as_long()))));
        break;
      case Op::lshl: {
        const std::int32_t s = pop().as_int();
        const std::int64_t a = pop().as_long();
        push(Value::make_long(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(a) << (s & 63))));
        break;
      }
      case Op::lshr: {
        const std::int32_t s = pop().as_int();
        const std::int64_t a = pop().as_long();
        push(Value::make_long(a >> (s & 63)));
        break;
      }
      case Op::lushr: {
        const std::int32_t s = pop().as_int();
        const std::int64_t a = pop().as_long();
        push(Value::make_long(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(a) >> (s & 63))));
        break;
      }

      // ---- float arithmetic (float precision) ----
#define JF_FBIN(opname, oper)                                           \
  case Op::opname: {                                                    \
    const float b = static_cast<float>(pop().as_fp());                  \
    const float a = static_cast<float>(pop().as_fp());                  \
    push(Value::make_float(a oper b));                                  \
    break;                                                              \
  }
      JF_FBIN(fadd, +)
      JF_FBIN(fsub, -)
      JF_FBIN(fmul, *)
      JF_FBIN(fdiv, /)
#undef JF_FBIN
      case Op::frem: {
        const float b = static_cast<float>(pop().as_fp());
        const float a = static_cast<float>(pop().as_fp());
        push(Value::make_float(std::fmod(a, b)));
        break;
      }
      case Op::fneg:
        push(Value::make_float(-static_cast<float>(pop().as_fp())));
        break;

      // ---- double arithmetic ----
#define JF_DBIN(opname, oper)                                           \
  case Op::opname: {                                                    \
    const double b = pop().as_fp();                                     \
    const double a = pop().as_fp();                                     \
    push(Value::make_double(a oper b));                                 \
    break;                                                              \
  }
      JF_DBIN(dadd, +)
      JF_DBIN(dsub, -)
      JF_DBIN(dmul, *)
      JF_DBIN(ddiv, /)
#undef JF_DBIN
      case Op::drem: {
        const double b = pop().as_fp();
        const double a = pop().as_fp();
        push(Value::make_double(std::fmod(a, b)));
        break;
      }
      case Op::dneg:
        push(Value::make_double(-pop().as_fp()));
        break;

      // ---- comparisons ----
      case Op::lcmp: {
        const std::int64_t b = pop().as_long();
        const std::int64_t a = pop().as_long();
        push(Value::make_int(a < b ? -1 : (a > b ? 1 : 0)));
        break;
      }
      case Op::fcmpl:
      case Op::fcmpg:
      case Op::dcmpl:
      case Op::dcmpg: {
        const double b = pop().as_fp();
        const double a = pop().as_fp();
        std::int32_t r;
        if (std::isnan(a) || std::isnan(b)) {
          r = (inst.op == Op::fcmpg || inst.op == Op::dcmpg) ? 1 : -1;
        } else {
          r = a < b ? -1 : (a > b ? 1 : 0);
        }
        push(Value::make_int(r));
        break;
      }

      // ---- conversions ----
      case Op::i2l: push(Value::make_long(pop().as_int())); break;
      case Op::i2f: push(Value::make_float(pop().as_int())); break;
      case Op::i2d: push(Value::make_double(pop().as_int())); break;
      case Op::l2i: push(Value::make_int(wrap32(pop().as_long()))); break;
      case Op::l2f:
        push(Value::make_float(static_cast<double>(pop().as_long())));
        break;
      case Op::l2d:
        push(Value::make_double(static_cast<double>(pop().as_long())));
        break;
      case Op::f2i: push(Value::make_int(fp2i(pop().as_fp()))); break;
      case Op::f2l: push(Value::make_long(fp2l(pop().as_fp()))); break;
      case Op::f2d: push(Value::make_double(pop().as_fp())); break;
      case Op::d2i: push(Value::make_int(fp2i(pop().as_fp()))); break;
      case Op::d2l: push(Value::make_long(fp2l(pop().as_fp()))); break;
      case Op::d2f: push(Value::make_float(pop().as_fp())); break;
      case Op::i2b:
        push(Value::make_int(static_cast<std::int8_t>(pop().as_int())));
        break;
      case Op::i2c:
        push(Value::make_int(static_cast<std::uint16_t>(pop().as_int())));
        break;
      case Op::i2s:
        push(Value::make_int(static_cast<std::int16_t>(pop().as_int())));
        break;

      // ---- branches ----
#define JF_IF1(opname, cond)                                            \
  case Op::opname: {                                                    \
    const std::int32_t v = pop().as_int();                              \
    (void)v;                                                            \
    if (cond) next = static_cast<std::size_t>(inst.target);             \
    break;                                                              \
  }
      JF_IF1(ifeq, v == 0)
      JF_IF1(ifne, v != 0)
      JF_IF1(iflt, v < 0)
      JF_IF1(ifge, v >= 0)
      JF_IF1(ifgt, v > 0)
      JF_IF1(ifle, v <= 0)
#undef JF_IF1
#define JF_IF2(opname, cond)                                            \
  case Op::opname: {                                                    \
    const std::int32_t b = pop().as_int();                              \
    const std::int32_t a = pop().as_int();                              \
    (void)a; (void)b;                                                   \
    if (cond) next = static_cast<std::size_t>(inst.target);             \
    break;                                                              \
  }
      JF_IF2(if_icmpeq, a == b)
      JF_IF2(if_icmpne, a != b)
      JF_IF2(if_icmplt, a < b)
      JF_IF2(if_icmpge, a >= b)
      JF_IF2(if_icmpgt, a > b)
      JF_IF2(if_icmple, a <= b)
#undef JF_IF2
      case Op::if_acmpeq: {
        const Ref b = pop().as_ref();
        const Ref a = pop().as_ref();
        if (a == b) next = static_cast<std::size_t>(inst.target);
        break;
      }
      case Op::if_acmpne: {
        const Ref b = pop().as_ref();
        const Ref a = pop().as_ref();
        if (a != b) next = static_cast<std::size_t>(inst.target);
        break;
      }
      case Op::ifnull:
        if (pop().as_ref() == kNull) {
          next = static_cast<std::size_t>(inst.target);
        }
        break;
      case Op::ifnonnull:
        if (pop().as_ref() != kNull) {
          next = static_cast<std::size_t>(inst.target);
        }
        break;
      case Op::goto_:
      case Op::goto_w:
        next = static_cast<std::size_t>(inst.target);
        break;

      // ---- switches ----
      case Op::tableswitch: {
        const SwitchTable& t =
            m.switches[static_cast<std::size_t>(inst.operand)];
        const std::int32_t key = pop().as_int();
        next = static_cast<std::size_t>(t.default_target);
        if (!t.keys.empty() && key >= t.keys.front() &&
            key <= t.keys.back()) {
          next = static_cast<std::size_t>(
              t.targets[static_cast<std::size_t>(key - t.keys.front())]);
        }
        break;
      }
      case Op::lookupswitch: {
        const SwitchTable& t =
            m.switches[static_cast<std::size_t>(inst.operand)];
        const std::int32_t key = pop().as_int();
        next = static_cast<std::size_t>(t.default_target);
        for (std::size_t k = 0; k < t.keys.size(); ++k) {
          if (t.keys[k] == key) {
            next = static_cast<std::size_t>(t.targets[k]);
            break;
          }
        }
        break;
      }

      // ---- returns ----
      case Op::ireturn: case Op::lreturn: case Op::freturn:
      case Op::dreturn: case Op::areturn:
      case Op::return_: {
        const Value result = inst.op == Op::return_
                                 ? Value::make_default(ValueType::Void)
                                 : pop();
        if (callers.empty()) return result;
        const bool push_result = cur.push_result;
        cur = std::move(callers.back());
        callers.pop_back();
        if (push_result) push(result);
        next = cur.pc;
        break;
      }
      case Op::athrow:
        throw JvmException("athrow from " + m.name);

      // ---- fields (with _Quick rewriting) ----
      case Op::getstatic:
      case Op::putstatic:
      case Op::getfield:
      case Op::putfield: {
        CpEntry& e = program_.pool.at_mutable(inst.operand);
        const bytecode::ClassDef* cls =
            program_.find_class(e.field.class_name);
        if (cls == nullptr) {
          throw std::runtime_error("unresolved class " + e.field.class_name);
        }
        const auto slot = e.field.is_static
                              ? cls->static_slot(e.field.field_name)
                              : cls->instance_slot(e.field.field_name);
        if (!slot) {
          throw std::runtime_error("unresolved field " + e.field.field_name);
        }
        e.field.resolved_slot = *slot;
        inst.op = bytecode::quick_form(inst.op);
        // Re-execute this pc as the quick form without advancing, exactly
        // like an interpreter re-dispatching the patched opcode. The base
        // execution was already profiled (Table 5's "Storage Base" count).
        next = pc;
        break;
      }
      case Op::getstatic_quick: {
        const CpEntry& e = program_.pool.at(inst.operand);
        push(heap_.get_static(*program_.find_class(e.field.class_name),
                              e.field.resolved_slot));
        break;
      }
      case Op::putstatic_quick: {
        const CpEntry& e = program_.pool.at(inst.operand);
        heap_.put_static(*program_.find_class(e.field.class_name),
                         e.field.resolved_slot, pop());
        break;
      }
      case Op::getfield_quick: {
        const CpEntry& e = program_.pool.at(inst.operand);
        const Ref obj = pop().as_ref();
        push(heap_.get_field(obj, e.field.resolved_slot));
        break;
      }
      case Op::putfield_quick: {
        const CpEntry& e = program_.pool.at(inst.operand);
        const Value v = pop();
        const Ref obj = pop().as_ref();
        heap_.put_field(obj, e.field.resolved_slot, v);
        break;
      }

      // ---- calls ----
      case Op::invokevirtual:
      case Op::invokespecial:
      case Op::invokestatic:
      case Op::invokeinterface: {
        const CpEntry& e = program_.pool.at(inst.operand);
        std::vector<Value> args(inst.pop);
        for (int k = inst.pop - 1; k >= 0; --k) {
          args[static_cast<std::size_t>(k)] = pop();
        }
        const bool push_result = e.method.return_type != ValueType::Void;
        if (const Method* callee = program_.find(e.method.qualified_name)) {
          cur.pc = next;
          callers.push_back(std::move(cur));
          enter(*callee, std::move(args), push_result);
          next = 0;
          break;
        }
        auto it = intrinsics_.find(e.method.qualified_name);
        if (it == intrinsics_.end()) {
          throw std::runtime_error("unresolved method " +
                                   e.method.qualified_name);
        }
        const Value result = it->second(*this, args);
        if (push_result) push(result);
        break;
      }

      // ---- objects / arrays / services ----
      case Op::new_: {
        const CpEntry& e = program_.pool.at(inst.operand);
        const bytecode::ClassDef* cls = program_.find_class(e.cls.class_name);
        if (cls == nullptr) {
          throw std::runtime_error("new of unknown class " +
                                   e.cls.class_name);
        }
        push(Value::make_ref(heap_.new_object(*cls)));
        break;
      }
      case Op::newarray: {
        const std::int32_t len = pop().as_int();
        push(Value::make_ref(heap_.new_array(
            static_cast<ValueType>(inst.operand), len)));
        break;
      }
      case Op::anewarray: {
        const std::int32_t len = pop().as_int();
        push(Value::make_ref(heap_.new_array(ValueType::Ref, len)));
        break;
      }
      case Op::multianewarray: {
        std::vector<std::int32_t> dims(static_cast<std::size_t>(inst.pop));
        for (int k = inst.pop - 1; k >= 0; --k) {
          dims[static_cast<std::size_t>(k)] = pop().as_int();
        }
        push(Value::make_ref(heap_.new_multi_array(ValueType::Double, dims)));
        break;
      }
      case Op::arraylength:
        push(Value::make_int(heap_.array_length(pop().as_ref())));
        break;
      case Op::checkcast:
        break;  // type system is honorary here; verifier guards structure
      case Op::instanceof_:
        push(Value::make_int(pop().as_ref() != kNull ? 1 : 0));
        break;
      case Op::monitorenter:
      case Op::monitorexit:
        (void)pop();  // single-threaded reference implementation
        break;

      case Op::jsr:
      case Op::jsr_w:
      case Op::ret:
        throw std::runtime_error("jsr/ret rejected by verifier; unreachable");
    }
    if (branch_hook_ &&
        (inst.is_branch() || inst.op == Op::tableswitch ||
         inst.op == Op::lookupswitch)) {
      branch_hook_(m, static_cast<std::int32_t>(pc),
                   static_cast<std::int32_t>(next));
    }
    pc = next;
  }
}

}  // namespace javaflow::jvm
