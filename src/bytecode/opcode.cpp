#include "bytecode/opcode.hpp"

#include <array>

namespace javaflow::bytecode {
namespace {

constexpr std::array<OpInfo, 256> build_table() {
  std::array<OpInfo, 256> t{};
#define JAVAFLOW_FILL(name_, byte_, group_, pop_, push_, operand_, sig_)   \
  t[byte_] = OpInfo{#name_,          Group::group_,                       \
                    pop_,            push_,                               \
                    OperandKind::operand_, sig_,                          \
                    true};
  JAVAFLOW_OPCODE_TABLE(JAVAFLOW_FILL)
#undef JAVAFLOW_FILL
  return t;
}

constexpr std::array<OpInfo, 256> kTable = build_table();

}  // namespace

const OpInfo& op_info(Op op) noexcept {
  return kTable[static_cast<std::uint8_t>(op)];
}

std::string_view value_type_name(ValueType t) noexcept {
  switch (t) {
    case ValueType::Int: return "int";
    case ValueType::Long: return "long";
    case ValueType::Float: return "float";
    case ValueType::Double: return "double";
    case ValueType::Ref: return "ref";
    case ValueType::Void: return "void";
  }
  return "?";
}

ValueType type_from_sig_char(char c) noexcept {
  switch (c) {
    case 'I': return ValueType::Int;
    case 'J': return ValueType::Long;
    case 'F': return ValueType::Float;
    case 'D': return ValueType::Double;
    case 'A': return ValueType::Ref;
    default: return ValueType::Void;
  }
}

bool is_typed_sig_char(char c) noexcept {
  return c == 'I' || c == 'J' || c == 'F' || c == 'D' || c == 'A';
}

bool is_generic_sig_char(char c) noexcept {
  return c == 'X' || c == 'Y' || c == 'Z' || c == 'W';
}

bool is_valid_opcode(std::uint8_t byte) noexcept { return kTable[byte].valid; }

std::string_view op_name(Op op) noexcept { return op_info(op).name; }

NodeType node_type_for(Group g) noexcept {
  switch (g) {
    case Group::FpConversion:
    case Group::FpArith:
      return NodeType::FloatingPoint;
    case Group::MemConstant:
    case Group::MemRead:
    case Group::MemWrite:
    case Group::Special:  // GPP-serviced; hosted on ring-connected nodes
      return NodeType::Storage;
    case Group::ControlFlow:
    case Group::Call:
    case Group::Return:
      return NodeType::Control;
    case Group::ArithInteger:
    case Group::ArithMove:
    case Group::LocalRead:
    case Group::LocalWrite:
    case Group::LocalInc:
      return NodeType::Arithmetic;
  }
  return NodeType::Arithmetic;
}

int execution_mesh_cycles(Group g) noexcept {
  switch (g) {
    case Group::ArithMove:
      return 1;  // Move
    case Group::FpArith:
      return 10;  // Floating point arithmetic
    case Group::FpConversion:
      return 5;  // Integer-Float conversion
    default:
      return 2;  // Special, Logical, Register, Memory (Table 17)
  }
}

StaticMixCategory static_mix_category(Group g) noexcept {
  switch (g) {
    case Group::FpConversion:
    case Group::FpArith:
      return StaticMixCategory::Float;
    case Group::ControlFlow:
    case Group::Call:
    case Group::Return:
      return StaticMixCategory::Control;
    case Group::MemConstant:
    case Group::MemRead:
    case Group::MemWrite:
    case Group::Special:
      return StaticMixCategory::Storage;
    default:
      return StaticMixCategory::Arith;
  }
}

DynamicMixCategory dynamic_mix_category(Group g) noexcept {
  switch (g) {
    case Group::ArithInteger:
      return DynamicMixCategory::ArithFixed;
    case Group::FpArith:
    case Group::FpConversion:
      return DynamicMixCategory::ArithFloat;
    case Group::ArithMove:
    case Group::LocalRead:
    case Group::LocalWrite:
    case Group::LocalInc:
      return DynamicMixCategory::LocalsStack;
    case Group::MemConstant:
      return DynamicMixCategory::ConstantsStg;
    case Group::MemRead:
    case Group::MemWrite:
      return DynamicMixCategory::FieldsArrayStg;
    case Group::ControlFlow:
      return DynamicMixCategory::Control;
    case Group::Call:
    case Group::Return:
      return DynamicMixCategory::CallsRets;
    case Group::Special:
      return DynamicMixCategory::ObjectSpecial;
  }
  return DynamicMixCategory::ObjectSpecial;
}

bool is_control_transfer(Group g) noexcept {
  return g == Group::ControlFlow || g == Group::Call || g == Group::Return;
}

bool has_quick_form(Op op) noexcept {
  switch (op) {
    case Op::ldc:
    case Op::ldc_w:
    case Op::ldc2_w:
    case Op::getfield:
    case Op::putfield:
    case Op::getstatic:
    case Op::putstatic:
      return true;
    default:
      return false;
  }
}

Op quick_form(Op op) noexcept {
  switch (op) {
    case Op::ldc:
      return Op::ldc_quick;
    case Op::ldc_w:
      return Op::ldc_w_quick;
    case Op::ldc2_w:
      return Op::ldc2_w_quick;
    case Op::getfield:
      return Op::getfield_quick;
    case Op::putfield:
      return Op::putfield_quick;
    case Op::getstatic:
      return Op::getstatic_quick;
    case Op::putstatic:
      return Op::putstatic_quick;
    default:
      return op;
  }
}

bool is_quick(Op op) noexcept {
  switch (op) {
    case Op::ldc_quick:
    case Op::ldc_w_quick:
    case Op::ldc2_w_quick:
    case Op::getfield_quick:
    case Op::putfield_quick:
    case Op::getstatic_quick:
    case Op::putstatic_quick:
      return true;
    default:
      return false;
  }
}

}  // namespace javaflow::bytecode
