#include "bytecode/textio.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "bytecode/verifier.hpp"

namespace javaflow::bytecode {
namespace {

// ---- shared helpers --------------------------------------------------------

const std::map<std::string_view, Op>& op_by_name() {
  static const std::map<std::string_view, Op> table = [] {
    std::map<std::string_view, Op> t;
    for (int b = 0; b < 256; ++b) {
      if (is_valid_opcode(static_cast<std::uint8_t>(b))) {
        const Op op = static_cast<Op>(b);
        t.emplace(op_name(op), op);
      }
    }
    return t;
  }();
  return table;
}

[[noreturn]] void fail_at(int line, const std::string& why) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + why);
}

ValueType parse_value_type(const std::string& s, int line) {
  for (const ValueType t : {ValueType::Int, ValueType::Long,
                            ValueType::Float, ValueType::Double,
                            ValueType::Ref, ValueType::Void}) {
    if (s == value_type_name(t)) return t;
  }
  fail_at(line, "unknown value type '" + s + "'");
}

// Numbers are parsed as whole tokens: a sign-only token, trailing bytes,
// or a value outside [lo, hi] is a line-numbered error, never a silently
// truncated or narrowed value.
std::int64_t parse_int(std::string_view tok, std::int64_t lo, std::int64_t hi,
                       int line) {
  std::int64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc{} || p != end || v < lo || v > hi) {
    fail_at(line, "bad integer '" + std::string(tok) + "'");
  }
  return v;
}

std::int32_t parse_i32(std::string_view tok, int line) {
  return static_cast<std::int32_t>(
      parse_int(tok, std::numeric_limits<std::int32_t>::min(),
                std::numeric_limits<std::int32_t>::max(), line));
}

double parse_fp(std::string_view tok, int line) {
  double v = 0.0;
  const char* end = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc{} || p != end) {
    fail_at(line, "bad number '" + std::string(tok) + "'");
  }
  return v;
}

std::string fp_to_string(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (std::isprint(static_cast<unsigned char>(c)) != 0) {
          out.push_back(c);
        } else {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\x%02x",
                        static_cast<unsigned char>(c));
          out += buf;
        }
    }
  }
  return out;
}

std::string unescape(const std::string& s, int line) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) fail_at(line, "dangling escape");
    switch (s[i]) {
      case '\\': out.push_back('\\'); break;
      case '"': out.push_back('"'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'x': {
        // Exactly two hex digits.
        if (i + 2 >= s.size()) fail_at(line, "bad \\x escape");
        unsigned char byte = 0;
        const char* digits = s.data() + i + 1;
        const auto [p, ec] = std::from_chars(digits, digits + 2, byte, 16);
        if (ec != std::errc{} || p != digits + 2) {
          fail_at(line, "bad \\x escape");
        }
        out.push_back(static_cast<char>(byte));
        i += 2;
        break;
      }
      default:
        fail_at(line, "unknown escape");
    }
  }
  return out;
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::string join_ints(const std::vector<std::int32_t>& v) {
  std::string out;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k) out += ",";
    out += std::to_string(v[k]);
  }
  return out;
}

std::vector<std::int32_t> parse_ints(const std::string& s, int line) {
  std::vector<std::int32_t> out;
  std::string cur;
  for (const char c : s + ",") {
    if (c == ',') {
      if (!cur.empty()) {
        out.push_back(parse_i32(cur, line));
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  return out;
}

// ---- writing ---------------------------------------------------------------

void write_cp_operand(const Method& m, const Instruction& inst,
                      const ConstantPool& pool, std::ostream& os) {
  const CpEntry& e = pool.at(inst.operand);
  switch (e.kind) {
    case CpEntry::Kind::Int:
      os << " int " << e.i;
      break;
    case CpEntry::Kind::Long:
      os << " long " << e.i;
      break;
    case CpEntry::Kind::Float:
      os << " float " << fp_to_string(e.d);
      break;
    case CpEntry::Kind::Double:
      os << " double " << fp_to_string(e.d);
      break;
    case CpEntry::Kind::Str:
      os << " str \"" << escape(e.s) << "\"";
      break;
    case CpEntry::Kind::Field:
      os << " " << e.field.class_name << "." << e.field.field_name << " "
         << value_type_name(e.field.type);
      break;
    case CpEntry::Kind::Method:
      os << " " << e.method.qualified_name << " "
         << int(e.method.arg_values) << " "
         << value_type_name(e.method.return_type);
      break;
    case CpEntry::Kind::Class:
      os << " " << e.cls.class_name;
      if (inst.op == Op::multianewarray) os << " " << e.cls.dims;
      break;
  }
  (void)m;
}

}  // namespace

void write_method(const Method& m, const ConstantPool& pool,
                  std::ostream& os) {
  os << ".method " << m.name << "\n";
  if (!m.benchmark.empty()) os << ".benchmark " << m.benchmark << "\n";
  if (!m.is_static) os << ".instance\n";
  os << ".args";
  for (const ValueType t : m.arg_types) os << " " << value_type_name(t);
  os << "\n.returns " << value_type_name(m.return_type) << "\n";
  os << ".locals " << m.max_locals << "\n";
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const Instruction& inst = m.code[i];
    const OpInfo& info = op_info(inst.op);
    os << "  " << i << ": " << info.name;
    switch (info.operand) {
      case OperandKind::None:
        break;
      case OperandKind::Imm:
        os << " " << inst.operand;
        break;
      case OperandKind::Local:
        os << " " << inst.operand;
        if (inst.op == Op::iinc) os << " " << inst.operand2;
        break;
      case OperandKind::Branch:
        os << " " << inst.target;
        break;
      case OperandKind::Switch: {
        const SwitchTable& t =
            m.switches[static_cast<std::size_t>(inst.operand)];
        os << " keys=" << join_ints(t.keys)
           << " targets=" << join_ints(t.targets)
           << " default=" << t.default_target;
        break;
      }
      case OperandKind::Cp:
        write_cp_operand(m, inst, pool, os);
        break;
    }
    os << "\n";
  }
  os << ".end\n";
}

void write_program(const Program& program, std::ostream& os) {
  os << "# javaflow .jfasm program image\n";
  for (const auto& [name, cls] : program.classes) {
    os << "\n.class " << name << "\n";
    for (const auto& [field, type] : cls.instance_fields) {
      os << ".field " << field << " " << value_type_name(type) << "\n";
    }
    for (const auto& [field, type] : cls.static_fields) {
      os << ".static " << field << " " << value_type_name(type) << "\n";
    }
    os << ".end\n";
  }
  for (const Method& m : program.methods) {
    os << "\n";
    write_method(m, program.pool, os);
  }
}

std::string write_program(const Program& program) {
  std::ostringstream os;
  write_program(program, os);
  return os.str();
}

// ---- parsing ---------------------------------------------------------------

namespace {

struct Parser {
  Program program;
  std::istream& is;
  int line_no = 0;

  explicit Parser(std::istream& in) : is(in) {}

  [[noreturn]] void fail(const std::string& why) const {
    fail_at(line_no, why);
  }

  bool next_line(std::string& out) {
    while (std::getline(is, out)) {
      ++line_no;
      // The same whitespace split_ws() splits on, so a returned line
      // always has a first token.
      const auto first = out.find_first_not_of(" \t\r\v\f");
      if (first == std::string::npos) continue;
      if (out[first] == '#' || out[first] == ';') continue;
      return true;
    }
    return false;
  }

  void run() {
    std::string line;
    while (next_line(line)) {
      const auto toks = split_ws(line);
      if (toks[0] == ".class") {
        if (toks.size() != 2) fail(".class wants a name");
        parse_class(toks[1]);
      } else if (toks[0] == ".method") {
        if (toks.size() != 2) fail(".method wants a name");
        parse_method(toks[1]);
      } else {
        fail("expected .class or .method, got '" + toks[0] + "'");
      }
    }
  }

  void parse_class(const std::string& name) {
    ClassDef cls;
    cls.name = name;
    std::string line;
    while (next_line(line)) {
      const auto toks = split_ws(line);
      if (toks[0] == ".end") {
        program.classes[name] = std::move(cls);
        return;
      }
      if (toks.size() != 3 ||
          (toks[0] != ".field" && toks[0] != ".static")) {
        fail("expected .field/.static name type");
      }
      const ValueType t = parse_value_type(toks[2], line_no);
      if (toks[0] == ".field") {
        cls.instance_fields.emplace_back(toks[1], t);
      } else {
        cls.static_fields.emplace_back(toks[1], t);
      }
    }
    fail("unterminated .class block");
  }

  void parse_method(const std::string& name) {
    Method m;
    m.name = name;
    std::string line;
    while (next_line(line)) {
      const auto toks = split_ws(line);
      if (toks[0] == ".end") {
        finish_method(std::move(m));
        return;
      }
      if (toks[0] == ".benchmark") {
        if (toks.size() != 2) fail(".benchmark wants a tag");
        m.benchmark = toks[1];
      } else if (toks[0] == ".instance") {
        m.is_static = false;
      } else if (toks[0] == ".args") {
        m.arg_types.clear();
        for (std::size_t k = 1; k < toks.size(); ++k) {
          m.arg_types.push_back(parse_value_type(toks[k], line_no));
        }
        m.num_args = static_cast<std::uint8_t>(m.arg_types.size());
      } else if (toks[0] == ".returns") {
        if (toks.size() != 2) fail(".returns wants a type");
        m.return_type = parse_value_type(toks[1], line_no);
      } else if (toks[0] == ".locals") {
        if (toks.size() != 2) fail(".locals wants a count");
        m.max_locals = static_cast<std::uint16_t>(
            parse_int(toks[1], 0, std::numeric_limits<std::uint16_t>::max(),
                      line_no));
      } else {
        parse_instruction(m, toks);
      }
    }
    fail("unterminated .method block");
  }

  void parse_instruction(Method& m, const std::vector<std::string>& toks) {
    // "<idx>: <op> [operands...]"
    if (toks.size() < 2 || toks[0].back() != ':') {
      fail("expected '<index>: <op>'");
    }
    const std::int64_t idx = parse_int(
        std::string_view(toks[0]).substr(0, toks[0].size() - 1), 0,
        std::numeric_limits<std::int32_t>::max(), line_no);
    if (idx != static_cast<std::int64_t>(m.code.size())) {
      fail("instruction index out of order");
    }
    const auto it = op_by_name().find(toks[1]);
    if (it == op_by_name().end()) fail("unknown opcode '" + toks[1] + "'");
    Instruction inst;
    inst.op = it->second;
    const OpInfo& info = op_info(inst.op);
    if (info.pop != kVarCount) inst.pop = info.pop;
    if (info.push != kVarCount) inst.push = info.push;

    auto want = [&](std::size_t n) {
      if (toks.size() != n) {
        fail(std::string(info.name) + " wants " + std::to_string(n - 2) +
             " operand(s)");
      }
    };
    switch (info.operand) {
      case OperandKind::None:
        want(2);
        break;
      case OperandKind::Imm:
        want(3);
        inst.operand = parse_i32(toks[2], line_no);
        break;
      case OperandKind::Local:
        if (inst.op == Op::iinc) {
          want(4);
          inst.operand = parse_i32(toks[2], line_no);
          inst.operand2 = parse_i32(toks[3], line_no);
        } else {
          want(3);
          inst.operand = parse_i32(toks[2], line_no);
        }
        break;
      case OperandKind::Branch:
        want(3);
        inst.target = parse_i32(toks[2], line_no);
        break;
      case OperandKind::Switch: {
        want(5);
        SwitchTable table;
        auto strip = [&](const std::string& tok, const char* key) {
          const std::string prefix = std::string(key) + "=";
          if (tok.rfind(prefix, 0) != 0) {
            fail("switch operand must start with " + prefix);
          }
          return tok.substr(prefix.size());
        };
        table.keys = parse_ints(strip(toks[2], "keys"), line_no);
        table.targets = parse_ints(strip(toks[3], "targets"), line_no);
        table.default_target = parse_i32(strip(toks[4], "default"), line_no);
        if (table.keys.size() != table.targets.size()) {
          fail("switch keys/targets size mismatch");
        }
        inst.operand = static_cast<std::int32_t>(m.switches.size());
        m.switches.push_back(std::move(table));
        break;
      }
      case OperandKind::Cp:
        parse_cp_operand(m, inst, toks);
        break;
    }
    m.code.push_back(inst);
  }

  void parse_cp_operand(Method& m, Instruction& inst,
                        const std::vector<std::string>& toks) {
    (void)m;
    const Group g = inst.group();
    if (g == Group::MemConstant) {
      if (toks.size() < 4) fail("constant wants '<kind> <value>'");
      const std::string& kind = toks[2];
      constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      if (kind == "int") {
        inst.operand = program.pool.add_int(
            parse_int(toks[3], kMin, kMax, line_no));
      } else if (kind == "long") {
        inst.operand = program.pool.add_long(
            parse_int(toks[3], kMin, kMax, line_no));
      } else if (kind == "float") {
        inst.operand = program.pool.add_float(parse_fp(toks[3], line_no));
      } else if (kind == "double") {
        inst.operand = program.pool.add_double(parse_fp(toks[3], line_no));
      } else if (kind == "str") {
        // Re-join the remaining tokens and strip the quotes.
        std::string raw = toks[3];
        for (std::size_t k = 4; k < toks.size(); ++k) raw += " " + toks[k];
        if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
          fail("string constant must be quoted");
        }
        inst.operand = program.pool.add_string(
            unescape(raw.substr(1, raw.size() - 2), line_no));
      } else {
        fail("unknown constant kind '" + kind + "'");
      }
      return;
    }
    if (g == Group::MemRead || g == Group::MemWrite) {
      // "<Cls.field> <type>" — split at the last '.'.
      if (toks.size() != 4) fail("field access wants 'Cls.field type'");
      const std::string& qual = toks[2];
      const auto dot = qual.rfind('.');
      if (dot == std::string::npos) fail("field wants 'Cls.field'");
      FieldRef ref;
      ref.class_name = qual.substr(0, dot);
      ref.field_name = qual.substr(dot + 1);
      ref.type = parse_value_type(toks[3], line_no);
      ref.is_static =
          inst.op == Op::getstatic || inst.op == Op::putstatic ||
          inst.op == Op::getstatic_quick || inst.op == Op::putstatic_quick;
      inst.operand = program.pool.add_field(std::move(ref));
      return;
    }
    if (g == Group::Call) {
      if (toks.size() != 5) fail("call wants 'name argc ret'");
      MethodRef ref;
      ref.qualified_name = toks[2];
      ref.arg_values =
          static_cast<std::uint8_t>(parse_int(toks[3], 0, 255, line_no));
      ref.return_type = parse_value_type(toks[4], line_no);
      inst.pop = ref.arg_values;
      inst.push = ref.return_type == ValueType::Void ? 0 : 1;
      inst.operand = program.pool.add_method(std::move(ref));
      return;
    }
    // Class operands: new/anewarray/checkcast/instanceof/multianewarray.
    if (inst.op == Op::multianewarray) {
      if (toks.size() != 4) fail("multianewarray wants 'Cls dims'");
      const auto dims =
          static_cast<std::int32_t>(parse_int(toks[3], 1, 255, line_no));
      inst.operand = program.pool.add_class(ClassRef{toks[2], dims});
      inst.operand2 = dims;
      inst.pop = static_cast<std::uint8_t>(dims);
      inst.push = 1;
      return;
    }
    if (toks.size() != 3) fail("class operand wants a name");
    inst.operand = program.pool.add_class(ClassRef{toks[2], 1});
  }

  void finish_method(Method m) {
    if (m.max_locals < m.num_args) m.max_locals = m.num_args;
    const VerifyResult vr = verify(m, program.pool);
    if (!vr.ok) {
      fail("method " + m.name + " failed verification: " + vr.error);
    }
    m.max_stack = vr.max_stack;
    program.methods.push_back(std::move(m));
  }
};

}  // namespace

Program parse_program(std::istream& is) {
  Parser p(is);
  p.run();
  return std::move(p.program);
}

Program parse_program(const std::string& text) {
  std::istringstream is(text);
  return parse_program(is);
}

}  // namespace javaflow::bytecode
