// Tests for the .jfasm textual interchange: round trips, diagnostics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bytecode/assembler.hpp"
#include "bytecode/textio.hpp"
#include "jvm/interpreter.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::bytecode {
namespace {

bool methods_equal(const Method& a, const Method& b,
                   const ConstantPool& pa, const ConstantPool& pb) {
  if (a.name != b.name || a.benchmark != b.benchmark ||
      a.num_args != b.num_args || a.return_type != b.return_type ||
      a.is_static != b.is_static || a.max_locals != b.max_locals ||
      a.max_stack != b.max_stack || a.code.size() != b.code.size() ||
      a.switches.size() != b.switches.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.code.size(); ++i) {
    const Instruction& x = a.code[i];
    const Instruction& y = b.code[i];
    if (x.op != y.op || x.pop != y.pop || x.push != y.push ||
        x.target != y.target) {
      return false;
    }
    const OpInfo& info = op_info(x.op);
    if (info.operand == OperandKind::Cp) {
      const CpEntry& ex = pa.at(x.operand);
      const CpEntry& ey = pb.at(y.operand);
      if (ex.kind != ey.kind) return false;
      switch (ex.kind) {
        case CpEntry::Kind::Int:
        case CpEntry::Kind::Long:
          if (ex.i != ey.i) return false;
          break;
        case CpEntry::Kind::Float:
        case CpEntry::Kind::Double:
          if (ex.d != ey.d) return false;
          break;
        case CpEntry::Kind::Str:
          if (ex.s != ey.s) return false;
          break;
        case CpEntry::Kind::Field:
          if (ex.field.class_name != ey.field.class_name ||
              ex.field.field_name != ey.field.field_name ||
              ex.field.type != ey.field.type ||
              ex.field.is_static != ey.field.is_static) {
            return false;
          }
          break;
        case CpEntry::Kind::Method:
          if (ex.method.qualified_name != ey.method.qualified_name ||
              ex.method.arg_values != ey.method.arg_values ||
              ex.method.return_type != ey.method.return_type) {
            return false;
          }
          break;
        case CpEntry::Kind::Class:
          if (ex.cls.class_name != ey.cls.class_name ||
              ex.cls.dims != ey.cls.dims) {
            return false;
          }
          break;
      }
    } else if (info.operand != OperandKind::Switch) {
      if (x.operand != y.operand || x.operand2 != y.operand2) return false;
    }
  }
  for (std::size_t s = 0; s < a.switches.size(); ++s) {
    if (a.switches[s].keys != b.switches[s].keys ||
        a.switches[s].targets != b.switches[s].targets ||
        a.switches[s].default_target != b.switches[s].default_target) {
      return false;
    }
  }
  return true;
}

TEST(TextIO, SimpleMethodRoundTrips) {
  Program p;
  Assembler a(p, "t.sum(I)I", "bm");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.iconst(0).istore(1);
  a.goto_(test);
  a.bind(body);
  a.iload(1).iload(0).op(Op::iadd).istore(1);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(1).op(Op::ireturn);
  p.methods.push_back(a.build());

  const std::string text = write_program(p);
  const Program q = parse_program(text);
  ASSERT_EQ(q.methods.size(), 1u);
  EXPECT_TRUE(methods_equal(p.methods[0], q.methods[0], p.pool, q.pool));
}

TEST(TextIO, ConstantsOfEveryKindRoundTrip) {
  Program p;
  p.classes["C"] = ClassDef{"C", {{"f", ValueType::Double}},
                            {{"s", ValueType::Int}}};
  Assembler a(p, "t.konst(A)D", "bm");
  a.args({ValueType::Ref}).returns(ValueType::Double);
  a.iconst(70000).op(Op::pop);                       // ldc int
  a.lconst(0x123456789abcLL).op(Op::pop);            // ldc2_w long
  a.fconst(1.5e-9F).op(Op::pop);                     // ldc float
  a.dconst(4.656612875245797e-10).op(Op::pop);       // ldc2_w double
  a.sconst("he said \"hi\"\n\tdone").op(Op::pop);    // ldc str w/ escapes
  a.getstatic("C", "s", ValueType::Int).op(Op::pop); // field
  a.aload(0).getfield("C", "f", ValueType::Double);  // instance field
  a.invokestatic("java.lang.Math.sqrt(D)D", 1, ValueType::Double);
  a.op(Op::dreturn);
  p.methods.push_back(a.build());

  const Program q = parse_program(write_program(p));
  ASSERT_EQ(q.methods.size(), 1u);
  EXPECT_TRUE(methods_equal(p.methods[0], q.methods[0], p.pool, q.pool));
  // Classes round trip too.
  ASSERT_TRUE(q.classes.contains("C"));
  EXPECT_EQ(q.classes.at("C").instance_fields.size(), 1u);
  EXPECT_EQ(q.classes.at("C").static_fields.size(), 1u);
}

TEST(TextIO, SwitchesRoundTrip) {
  Program p;
  Assembler a(p, "t.sw(I)I", "bm");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto c0 = a.new_label(), c1 = a.new_label(), dflt = a.new_label();
  a.iload(0);
  a.lookupswitch({{5, c0}, {99, c1}}, dflt);
  a.bind(c0);
  a.iconst(1).op(Op::ireturn);
  a.bind(c1);
  a.iconst(2).op(Op::ireturn);
  a.bind(dflt);
  a.iconst(0).op(Op::ireturn);
  p.methods.push_back(a.build());

  const Program q = parse_program(write_program(p));
  EXPECT_TRUE(methods_equal(p.methods[0], q.methods[0], p.pool, q.pool));
}

TEST(TextIO, ParsedProgramExecutesIdentically) {
  // The strongest round-trip check: a parsed kernel computes the same
  // answer under the interpreter.
  workloads::CorpusOptions opt;
  opt.total_methods = 0;
  workloads::Corpus corpus = workloads::make_corpus(opt);
  Program parsed = parse_program(write_program(corpus.program));
  ASSERT_EQ(parsed.methods.size(), corpus.program.methods.size());

  jvm::Interpreter vm(parsed);
  const jvm::Ref rnd =
      vm.heap().new_object(*parsed.find_class("scimark.utils.Random"));
  vm.invoke("scimark.utils.Random.initialize(I)V",
            {jvm::Value::make_ref(rnd), jvm::Value::make_int(113)});
  const auto v1 = vm.invoke("scimark.utils.Random.nextDouble()D",
                            {jvm::Value::make_ref(rnd)});
  // Same value the original program computes.
  jvm::Interpreter vm0(corpus.program);
  const jvm::Ref rnd0 = vm0.heap().new_object(
      *corpus.program.find_class("scimark.utils.Random"));
  vm0.invoke("scimark.utils.Random.initialize(I)V",
             {jvm::Value::make_ref(rnd0), jvm::Value::make_int(113)});
  const auto v0 = vm0.invoke("scimark.utils.Random.nextDouble()D",
                             {jvm::Value::make_ref(rnd0)});
  EXPECT_DOUBLE_EQ(v1.as_fp(), v0.as_fp());
}

TEST(TextIO, WholeKernelCorpusRoundTrips) {
  workloads::CorpusOptions opt;
  opt.total_methods = 0;
  workloads::Corpus corpus = workloads::make_corpus(opt);
  const Program q = parse_program(write_program(corpus.program));
  ASSERT_EQ(q.methods.size(), corpus.program.methods.size());
  for (std::size_t i = 0; i < q.methods.size(); ++i) {
    EXPECT_TRUE(methods_equal(corpus.program.methods[i], q.methods[i],
                              corpus.program.pool, q.pool))
        << corpus.program.methods[i].name;
  }
}

TEST(TextIO, MalformedInputsReportLineNumbers) {
  EXPECT_THROW(parse_program("bogus"), std::runtime_error);
  EXPECT_THROW(parse_program(".class X\n.field a int\n"),  // no .end
               std::runtime_error);
  EXPECT_THROW(parse_program(".method m\n  0: frobnicate\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(parse_program(".method m\n  5: nop\n.end\n"),  // bad index
               std::runtime_error);
  try {
    parse_program(".method m\n.returns void\n  0: iadd\n  1: return_\n.end\n");
    FAIL() << "verifier should reject stack underflow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("verification"), std::string::npos);
  }
}

TEST(TextIO, CommentsAndBlankLinesIgnored) {
  const Program q = parse_program(
      "# a comment\n"
      "\n"
      ".method t.one()I\n"
      "; another comment\n"
      ".returns int\n"
      "  0: iconst_1\n"
      "  1: ireturn\n"
      ".end\n");
  ASSERT_EQ(q.methods.size(), 1u);
  EXPECT_EQ(q.methods[0].code.size(), 2u);
}

// Every operand kind the format has: fields, constants of each kind
// (with string escapes), a call, a multi-dimensional array, a switch,
// iinc and branches.
Program every_operand_kind() {
  Program p;
  p.classes["C"] = ClassDef{"C", {{"f", ValueType::Double}},
                            {{"s", ValueType::Int}}};
  Assembler a(p, "t.all(AI)D", "bm");
  a.args({ValueType::Ref, ValueType::Int}).returns(ValueType::Double);
  auto one = a.new_label(), two = a.new_label(), out = a.new_label();
  a.iconst(70000).op(Op::pop);
  a.lconst(-0x123456789abcLL).op(Op::pop);
  a.fconst(1.5e-9F).op(Op::pop);
  a.dconst(4.656612875245797e-10).op(Op::pop);
  a.sconst("q\"\n\t\x01").op(Op::pop);
  a.getstatic("C", "s", ValueType::Int).op(Op::pop);
  a.iconst(2).iconst(3).multianewarray("[[I", 2).op(Op::pop);
  a.iinc(1, -7);
  a.iload(1);
  a.tableswitch(4, {one, two}, out);
  a.bind(one);
  a.iload(1).ifgt(out);
  a.bind(two);
  a.aload(0).getfield("C", "f", ValueType::Double);
  a.invokestatic("java.lang.Math.sqrt(D)D", 1, ValueType::Double);
  a.op(Op::dreturn);
  a.bind(out);
  a.dconst(0.0).op(Op::dreturn);
  p.methods.push_back(a.build());
  return p;
}

// Each mutated image either fails with the documented line-numbered
// std::runtime_error, or parses into a program whose own text image is
// a fixed point of write ∘ parse. No other exception may escape.
void expect_fails_closed(const std::string& text, const std::string& what) {
  std::string image;
  try {
    image = write_program(parse_program(text));
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u)
        << what << ": " << e.what();
    return;
  } catch (...) {
    ADD_FAILURE() << what << ": escaped as a non-runtime_error exception";
    return;
  }
  try {
    EXPECT_EQ(write_program(parse_program(image)), image) << what;
  } catch (...) {
    ADD_FAILURE() << what << ": its own image does not parse";
  }
}

TEST(TextIO, EveryTruncationAndByteFlipFailsClosed) {
  workloads::CorpusOptions opt;
  opt.total_methods = 0;
  const workloads::Corpus corpus = workloads::make_corpus(opt);
  const Method* kernel = corpus.program.find(
      "scimark.utils.Random.nextDouble()D");
  ASSERT_NE(kernel, nullptr);
  std::ostringstream os;
  write_method(*kernel, corpus.program.pool, os);
  for (const std::string& text :
       {write_program(every_operand_kind()), os.str()}) {
    expect_fails_closed(text, "unmutated");
    for (std::size_t n = 0; n < text.size(); ++n) {
      expect_fails_closed(text.substr(0, n),
                          "prefix of " + std::to_string(n) + " bytes");
    }
    for (std::size_t i = 0; i < text.size(); ++i) {
      for (const unsigned mask : {0x01u, 0x20u, 0x80u, 0xffu}) {
        std::string bad = text;
        bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ mask);
        expect_fails_closed(bad, "byte " + std::to_string(i) + " ^ " +
                                     std::to_string(mask));
      }
    }
  }
}

TEST(TextIO, NumbersAreWholeTokensInRange) {
  const std::string head = ".method t.n()I\n.returns int\n";
  for (const char* bad : {"  0: bipush 12x\n", "  0: bipush -\n",
                          "  0: bipush 99999999999\n", "x: nop\n",
                          ":  nop\n", "  0: ldc int 1e3\n",
                          "  0: ldc2_w double 1e999\n"}) {
    EXPECT_THROW(parse_program(head + bad + "  1: ireturn\n.end\n"),
                 std::runtime_error)
        << bad;
  }
  EXPECT_THROW(parse_program(".method t.n()I\n.locals 65536\n.end\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace javaflow::bytecode
