// Tests for the reference interpreter — semantics, exceptions, _Quick
#include <cmath>
#include <limits>
// rewriting, and profiling.
#include <gtest/gtest.h>

#include "bytecode/assembler.hpp"
#include "jvm/interpreter.hpp"

namespace javaflow::jvm {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

struct Fixture {
  Program program;
  Profiler profiler;

  const bytecode::Method& add(bytecode::Method m) {
    program.methods.push_back(std::move(m));
    return program.methods.back();
  }
};

TEST(Interpreter, IntArithmeticWrapsAt32Bits) {
  Fixture f;
  Assembler a(f.program, "t.ovf()I", "test");
  a.returns(ValueType::Int);
  a.iconst(2147483647).iconst(1).op(Op::iadd).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.ovf()I", {}).as_int(),
            std::numeric_limits<std::int32_t>::min());
}

TEST(Interpreter, IntDivisionSemantics) {
  Fixture f;
  Assembler a(f.program, "t.div(II)I", "test");
  a.args({ValueType::Int, ValueType::Int}).returns(ValueType::Int);
  a.iload(0).iload(1).op(Op::idiv).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.div(II)I",
                      {Value::make_int(7), Value::make_int(2)})
                .as_int(),
            3);
  EXPECT_EQ(vm.invoke("t.div(II)I",
                      {Value::make_int(-7), Value::make_int(2)})
                .as_int(),
            -3);  // truncation toward zero
  EXPECT_EQ(vm.invoke("t.div(II)I",
                      {Value::make_int(std::numeric_limits<std::int32_t>::min()),
                       Value::make_int(-1)})
                .as_int(),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_THROW(
      vm.invoke("t.div(II)I", {Value::make_int(1), Value::make_int(0)}),
      JvmException);
}

TEST(Interpreter, ShiftMasksCount) {
  Fixture f;
  Assembler a(f.program, "t.shl(II)I", "test");
  a.args({ValueType::Int, ValueType::Int}).returns(ValueType::Int);
  a.iload(0).iload(1).op(Op::ishl).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(
      vm.invoke("t.shl(II)I", {Value::make_int(1), Value::make_int(33)})
          .as_int(),
      2);  // 33 & 31 == 1
}

TEST(Interpreter, LongAndConversionChain) {
  Fixture f;
  Assembler a(f.program, "t.conv(I)J", "test");
  a.args({ValueType::Int}).returns(ValueType::Long);
  a.iload(0).op(Op::i2l).iconst(1).op(Op::lshl).op(Op::lreturn);
  f.add(a.build());
  Interpreter vm(f.program);
  // (long)x << 1
  EXPECT_EQ(
      vm.invoke("t.conv(I)J", {Value::make_int(1 << 30)}).as_long(),
      (std::int64_t{1} << 31));
}

TEST(Interpreter, FloatPrecisionIsSinglePrecision) {
  Fixture f;
  Assembler a(f.program, "t.f()F", "test");
  a.returns(ValueType::Float);
  a.fconst(1.0);
  a.emit_cp(Op::ldc, f.program.pool.add_float(1e-9));
  a.op(Op::fadd).op(Op::freturn);
  f.add(a.build());
  Interpreter vm(f.program);
  // In float precision 1.0f + 1e-9f == 1.0f.
  EXPECT_EQ(vm.invoke("t.f()F", {}).as_fp(), 1.0);
}

TEST(Interpreter, FpCompareNanBias) {
  Fixture f;
  Assembler a(f.program, "t.cmp(DD)I", "test");
  a.args({ValueType::Double, ValueType::Double}).returns(ValueType::Int);
  a.dload(0).dload(1).op(Op::dcmpg).op(Op::ireturn);
  f.add(a.build());
  Assembler b(f.program, "t.cmpl(DD)I", "test");
  b.args({ValueType::Double, ValueType::Double}).returns(ValueType::Int);
  b.dload(0).dload(1).op(Op::dcmpl).op(Op::ireturn);
  f.add(b.build());
  Interpreter vm(f.program);
  const Value nan = Value::make_double(std::nan(""));
  const Value one = Value::make_double(1.0);
  EXPECT_EQ(vm.invoke("t.cmp(DD)I", {nan, one}).as_int(), 1);    // g: +1
  EXPECT_EQ(vm.invoke("t.cmpl(DD)I", {nan, one}).as_int(), -1);  // l: -1
  EXPECT_EQ(vm.invoke("t.cmp(DD)I", {one, one}).as_int(), 0);
}

TEST(Interpreter, SaturatingFpToIntConversion) {
  Fixture f;
  Assembler a(f.program, "t.d2i(D)I", "test");
  a.args({ValueType::Double}).returns(ValueType::Int);
  a.dload(0).op(Op::d2i).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.d2i(D)I", {Value::make_double(1e20)}).as_int(),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(vm.invoke("t.d2i(D)I", {Value::make_double(-1e20)}).as_int(),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(vm.invoke("t.d2i(D)I", {Value::make_double(std::nan(""))})
                .as_int(),
            0);
}

TEST(Interpreter, LoopComputesSum) {
  Fixture f;
  Assembler a(f.program, "t.sum(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto head = a.new_label(), done = a.new_label();
  a.iconst(0).istore(1);
  a.bind(head);
  a.iload(0).ifle(done);
  a.iload(1).iload(0).op(Op::iadd).istore(1);
  a.iinc(0, -1);
  a.goto_(head);
  a.bind(done);
  a.iload(1).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.sum(I)I", {Value::make_int(100)}).as_int(), 5050);
}

TEST(Interpreter, ArraysReadWriteAndBoundsCheck) {
  Fixture f;
  Assembler a(f.program, "t.arr(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  a.iconst(10).newarray(ValueType::Int).astore(1);
  a.aload(1).iload(0).iconst(42).op(Op::iastore);
  a.aload(1).iload(0).op(Op::iaload).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.arr(I)I", {Value::make_int(3)}).as_int(), 42);
  EXPECT_THROW(vm.invoke("t.arr(I)I", {Value::make_int(10)}), JvmException);
  EXPECT_THROW(vm.invoke("t.arr(I)I", {Value::make_int(-1)}), JvmException);
}

TEST(Interpreter, ByteArrayStoresTruncate) {
  Fixture f;
  Assembler a(f.program, "t.b()I", "test");
  a.returns(ValueType::Int);
  a.iconst(1).newarray(ValueType::Int).astore(0);
  a.aload(0).iconst(0).iconst(200).op(Op::bastore);
  a.aload(0).iconst(0).op(Op::baload).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.b()I", {}).as_int(), -56);  // (int8)200
}

TEST(Interpreter, FieldsAndQuickRewriting) {
  Fixture f;
  f.program.classes["P"] =
      bytecode::ClassDef{"P", {{"x", ValueType::Int}}, {{"total",
                                                          ValueType::Int}}};
  Assembler a(f.program, "P.bump(AI)I", "test");
  a.instance().args({ValueType::Ref, ValueType::Int}).returns(ValueType::Int);
  a.aload(0);
  a.aload(0).getfield("P", "x", ValueType::Int);
  a.iload(1).op(Op::iadd);
  a.putfield("P", "x", ValueType::Int);
  a.aload(0).getfield("P", "x", ValueType::Int).op(Op::ireturn);
  f.add(a.build());

  Interpreter vm(f.program, &f.profiler);
  const Ref obj = vm.heap().new_object(*f.program.find_class("P"));
  const auto call = [&](int d) {
    return vm
        .invoke("P.bump(AI)I", {Value::make_ref(obj), Value::make_int(d)})
        .as_int();
  };
  EXPECT_EQ(call(5), 5);
  EXPECT_EQ(call(7), 12);
  EXPECT_EQ(call(1), 13);
  // First execution runs the base forms once; every later execution uses
  // the rewritten _Quick forms (Table 5's shape: quick >> base).
  EXPECT_EQ(f.profiler.storage_base_ops(), 3u);  // 2 getfield + 1 putfield
  EXPECT_GT(f.profiler.storage_quick_ops(), f.profiler.storage_base_ops());
}

TEST(Interpreter, StaticsPersistAcrossInvocations) {
  Fixture f;
  f.program.classes["C"] =
      bytecode::ClassDef{"C", {}, {{"count", ValueType::Int}}};
  Assembler a(f.program, "C.next()I", "test");
  a.returns(ValueType::Int);
  a.getstatic("C", "count", ValueType::Int).iconst(1).op(Op::iadd);
  a.op(Op::dup).putstatic("C", "count", ValueType::Int);
  a.op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("C.next()I", {}).as_int(), 1);
  EXPECT_EQ(vm.invoke("C.next()I", {}).as_int(), 2);
  EXPECT_EQ(vm.invoke("C.next()I", {}).as_int(), 3);
}

TEST(Interpreter, CallsAndIntrinsics) {
  Fixture f;
  Assembler sq(f.program, "t.square(I)I", "test");
  sq.args({ValueType::Int}).returns(ValueType::Int);
  sq.iload(0).iload(0).op(Op::imul).op(Op::ireturn);
  f.add(sq.build());

  Assembler a(f.program, "t.hyp(II)D", "test");
  a.args({ValueType::Int, ValueType::Int}).returns(ValueType::Double);
  a.iload(0);
  a.invokestatic("t.square(I)I", 1, ValueType::Int);
  a.iload(1);
  a.invokestatic("t.square(I)I", 1, ValueType::Int);
  a.op(Op::iadd).op(Op::i2d);
  a.invokestatic("java.lang.Math.sqrt(D)D", 1, ValueType::Double);
  a.op(Op::dreturn);
  f.add(a.build());

  Interpreter vm(f.program);
  EXPECT_DOUBLE_EQ(
      vm.invoke("t.hyp(II)D", {Value::make_int(3), Value::make_int(4)})
          .as_fp(),
      5.0);
}

TEST(Interpreter, UnresolvedCallIsConfigurationError) {
  Fixture f;
  Assembler a(f.program, "t.calls()V", "test");
  a.returns(ValueType::Void);
  a.invokestatic("no.such.Method()V", 0, ValueType::Void);
  a.op(Op::return_);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_THROW(vm.invoke("t.calls()V", {}), std::runtime_error);
}

TEST(Interpreter, RecursionDepthGuard) {
  Fixture f;
  Assembler a(f.program, "t.rec()V", "test");
  a.returns(ValueType::Void);
  a.invokestatic("t.rec()V", 0, ValueType::Void);
  a.op(Op::return_);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_THROW(vm.invoke("t.rec()V", {}), JvmException);
}

// Frames live on the interpreter's heap, not the native stack, so a
// recursion just inside the depth guard returns its value in every
// build, sanitizers included.
TEST(Interpreter, DeepRecursionWithinTheGuardReturns) {
  Fixture f;
  // sum(n) = n == 0 ? 0 : n + sum(n - 1)
  Assembler a(f.program, "t.sum(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto base = a.new_label();
  a.iload(0).ifeq(base);
  a.iload(0);
  a.iload(0).iconst(1).op(Op::isub);
  a.invokestatic("t.sum(I)I", 1, ValueType::Int);
  a.op(Op::iadd).op(Op::ireturn);
  a.bind(base);
  a.iconst(0).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.sum(I)I", {Value::make_int(500)}).as_int(),
            500 * 501 / 2);
}

TEST(Interpreter, TableSwitchDispatch) {
  Fixture f;
  Assembler a(f.program, "t.sw(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto c0 = a.new_label(), c1 = a.new_label(), dflt = a.new_label();
  a.iload(0);
  a.tableswitch(0, {c0, c1}, dflt);
  a.bind(c0);
  a.iconst(10).op(Op::ireturn);
  a.bind(c1);
  a.iconst(11).op(Op::ireturn);
  a.bind(dflt);
  a.iconst(-1).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.sw(I)I", {Value::make_int(0)}).as_int(), 10);
  EXPECT_EQ(vm.invoke("t.sw(I)I", {Value::make_int(1)}).as_int(), 11);
  EXPECT_EQ(vm.invoke("t.sw(I)I", {Value::make_int(7)}).as_int(), -1);
  EXPECT_EQ(vm.invoke("t.sw(I)I", {Value::make_int(-2)}).as_int(), -1);
}

TEST(Interpreter, StringsAreCharArrays) {
  Fixture f;
  Assembler a(f.program, "t.len()I", "test");
  a.returns(ValueType::Int);
  a.sconst("hello");
  a.op(Op::arraylength).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_EQ(vm.invoke("t.len()I", {}).as_int(), 5);
}

TEST(Interpreter, ProfilerCountsPerMethodOps) {
  Fixture f;
  Assembler a(f.program, "t.p(I)I", "test-bm");
  a.args({ValueType::Int}).returns(ValueType::Int);
  a.iload(0).iconst(1).op(Op::iadd).op(Op::ireturn);
  f.add(a.build());
  Interpreter vm(f.program, &f.profiler);
  vm.invoke("t.p(I)I", {Value::make_int(1)});
  vm.invoke("t.p(I)I", {Value::make_int(2)});
  const auto& stats = f.profiler.methods().at("t.p(I)I");
  EXPECT_EQ(stats.invocations, 2u);
  EXPECT_EQ(stats.total_ops, 8u);  // 4 instructions x 2 runs
  EXPECT_EQ(stats.benchmark, "test-bm");
  EXPECT_EQ(stats.op_counts[static_cast<int>(Op::iadd)], 2u);
}

TEST(Interpreter, MultiDimensionalArrays) {
  Fixture f;
  Assembler a(f.program, "t.mat(II)D", "test");
  a.args({ValueType::Int, ValueType::Int}).returns(ValueType::Double);
  a.iload(0).iload(1).multianewarray("[[D", 2).astore(2);
  a.aload(2).iconst(1).op(Op::aaload).iconst(2).dconst(1.0).op(Op::dastore);
  a.aload(2).iconst(1).op(Op::aaload).iconst(2).op(Op::daload);
  a.op(Op::dreturn);
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_DOUBLE_EQ(
      vm.invoke("t.mat(II)D", {Value::make_int(3), Value::make_int(4)})
          .as_fp(),
      1.0);
}

TEST(Interpreter, AthrowRaises) {
  Fixture f;
  Assembler a(f.program, "t.boom()V", "test");
  a.returns(ValueType::Void);
  a.new_object("java.lang.RuntimeException");
  a.op(Op::athrow);
  f.program.classes["java.lang.RuntimeException"] =
      bytecode::ClassDef{"java.lang.RuntimeException", {}, {}};
  f.add(a.build());
  Interpreter vm(f.program);
  EXPECT_THROW(vm.invoke("t.boom()V", {}), JvmException);
}

}  // namespace
}  // namespace javaflow::jvm
