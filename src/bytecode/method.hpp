// In-memory representation of Java methods in the linear-address form the
// JavaFlow machine consumes (§4.2): one instruction per linear slot,
// branch targets expressed as linear instruction indices.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bytecode/opcode.hpp"

namespace javaflow::bytecode {

// ValueType lives in bytecode/opcode.hpp next to the signature alphabet
// it encodes (re-exported here via the include above).

// One ByteCode instruction in linear-address form.
struct Instruction {
  Op op = Op::nop;
  std::int32_t operand = 0;   // immediate / local index / cp index / imm
  std::int32_t operand2 = 0;  // iinc increment; invokeinterface count
  std::int32_t target = -1;   // linear index of the taken path (branches)
  std::uint8_t pop = 0;       // resolved pop count (calls differ per site)
  std::uint8_t push = 0;      // resolved push count

  Group group() const noexcept { return op_info(op).group; }
  bool is_branch() const noexcept {
    return op_info(op).operand == OperandKind::Branch;
  }
};

// The local register a LocalRead/LocalWrite/LocalInc instruction touches
// (decodes the _0.._3 short forms); -1 for other groups.
std::int32_t local_register(const Instruction& inst) noexcept;

// tableswitch / lookupswitch side table (keys + targets + default).
struct SwitchTable {
  std::vector<std::int32_t> keys;     // matched values (lookupswitch) or
                                      // low..high (tableswitch, dense)
  std::vector<std::int32_t> targets;  // linear indices, parallel to keys
  std::int32_t default_target = -1;
};

// ---- Constant pool -------------------------------------------------------

// A field reference before resolution ("symbolic"); resolution assigns the
// concrete slot index (the paper's `_Quick` rewriting caches this).
struct FieldRef {
  std::string class_name;
  std::string field_name;
  ValueType type = ValueType::Int;
  bool is_static = false;
  // Filled by resolution (interpreter) — slot within the class statics or
  // the instance layout.
  std::int32_t resolved_slot = -1;
};

struct MethodRef {
  std::string qualified_name;  // "Class.method(sig)" — unique in a Program
  std::uint8_t arg_values = 0; // values popped (incl. receiver if instance)
  ValueType return_type = ValueType::Void;
};

struct ClassRef {
  std::string class_name;
  std::int32_t dims = 1;  // for multianewarray
};

// One constant-pool entry (paper Figure 10: constants, field and method
// definitions/references all live in the pool).
struct CpEntry {
  enum class Kind : std::uint8_t {
    Int, Long, Float, Double, Str, Field, Method, Class
  };
  Kind kind = Kind::Int;
  std::int64_t i = 0;      // Int/Long payload
  double d = 0.0;          // Float/Double payload
  std::string s;           // Str payload
  FieldRef field;          // Field payload
  MethodRef method;        // Method payload
  ClassRef cls;            // Class payload
};

class ConstantPool {
 public:
  std::int32_t add_int(std::int64_t v);
  std::int32_t add_long(std::int64_t v);
  std::int32_t add_float(double v);
  std::int32_t add_double(double v);
  std::int32_t add_string(std::string v);
  std::int32_t add_field(FieldRef f);
  std::int32_t add_method(MethodRef m);
  std::int32_t add_class(ClassRef c);

  const CpEntry& at(std::int32_t idx) const;
  CpEntry& at_mutable(std::int32_t idx);
  std::size_t size() const noexcept { return entries_.size(); }

  // The stack type a load of this entry produces (ldc family / getfield).
  ValueType load_type(std::int32_t idx) const;

 private:
  std::int32_t push_entry(CpEntry e);
  std::vector<CpEntry> entries_;
};

// ---- Method / class / program -------------------------------------------

struct Method {
  std::string name;        // qualified: "Class.method(sig)"
  std::string benchmark;   // owning benchmark tag (e.g. "scimark.fft.large")
  std::uint16_t max_locals = 0;
  std::uint16_t max_stack = 0;  // computed by the verifier
  std::uint8_t num_args = 0;    // argument values (copied into locals 0..n)
  ValueType return_type = ValueType::Void;
  bool is_static = true;        // non-static methods receive `this` in r0
  std::vector<ValueType> arg_types;  // size == num_args
  std::vector<Instruction> code;
  std::vector<SwitchTable> switches;

  std::size_t size() const noexcept { return code.size(); }
};

// Class definition: instance field layout and static slots.
struct ClassDef {
  std::string name;
  std::vector<std::pair<std::string, ValueType>> instance_fields;
  std::vector<std::pair<std::string, ValueType>> static_fields;

  std::optional<std::int32_t> instance_slot(const std::string& f) const;
  std::optional<std::int32_t> static_slot(const std::string& f) const;
};

// A complete loadable program image: pool + classes + methods.
struct Program {
  ConstantPool pool;
  std::map<std::string, ClassDef> classes;
  std::vector<Method> methods;

  const Method* find(const std::string& qualified_name) const;
  const ClassDef* find_class(const std::string& name) const;
};

}  // namespace javaflow::bytecode
