#include "bytecode/method.hpp"

#include <stdexcept>

namespace javaflow::bytecode {

std::int32_t local_register(const Instruction& inst) noexcept {
  const Group g = inst.group();
  if (g != Group::LocalRead && g != Group::LocalWrite &&
      g != Group::LocalInc) {
    return -1;
  }
  switch (inst.op) {
    case Op::iload_0: case Op::lload_0: case Op::fload_0:
    case Op::dload_0: case Op::aload_0: case Op::istore_0:
    case Op::lstore_0: case Op::fstore_0: case Op::dstore_0:
    case Op::astore_0:
      return 0;
    case Op::iload_1: case Op::lload_1: case Op::fload_1:
    case Op::dload_1: case Op::aload_1: case Op::istore_1:
    case Op::lstore_1: case Op::fstore_1: case Op::dstore_1:
    case Op::astore_1:
      return 1;
    case Op::iload_2: case Op::lload_2: case Op::fload_2:
    case Op::dload_2: case Op::aload_2: case Op::istore_2:
    case Op::lstore_2: case Op::fstore_2: case Op::dstore_2:
    case Op::astore_2:
      return 2;
    case Op::iload_3: case Op::lload_3: case Op::fload_3:
    case Op::dload_3: case Op::aload_3: case Op::istore_3:
    case Op::lstore_3: case Op::fstore_3: case Op::dstore_3:
    case Op::astore_3:
      return 3;
    default:
      return inst.operand;
  }
}

std::int32_t ConstantPool::push_entry(CpEntry e) {
  entries_.push_back(std::move(e));
  return static_cast<std::int32_t>(entries_.size() - 1);
}

std::int32_t ConstantPool::add_int(std::int64_t v) {
  CpEntry e;
  e.kind = CpEntry::Kind::Int;
  e.i = v;
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_long(std::int64_t v) {
  CpEntry e;
  e.kind = CpEntry::Kind::Long;
  e.i = v;
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_float(double v) {
  CpEntry e;
  e.kind = CpEntry::Kind::Float;
  e.d = v;
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_double(double v) {
  CpEntry e;
  e.kind = CpEntry::Kind::Double;
  e.d = v;
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_string(std::string v) {
  CpEntry e;
  e.kind = CpEntry::Kind::Str;
  e.s = std::move(v);
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_field(FieldRef f) {
  CpEntry e;
  e.kind = CpEntry::Kind::Field;
  e.field = std::move(f);
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_method(MethodRef m) {
  CpEntry e;
  e.kind = CpEntry::Kind::Method;
  e.method = std::move(m);
  return push_entry(std::move(e));
}

std::int32_t ConstantPool::add_class(ClassRef c) {
  CpEntry e;
  e.kind = CpEntry::Kind::Class;
  e.cls = std::move(c);
  return push_entry(std::move(e));
}

const CpEntry& ConstantPool::at(std::int32_t idx) const {
  if (idx < 0 || static_cast<std::size_t>(idx) >= entries_.size()) {
    throw std::out_of_range("constant pool index out of range");
  }
  return entries_[static_cast<std::size_t>(idx)];
}

CpEntry& ConstantPool::at_mutable(std::int32_t idx) {
  return const_cast<CpEntry&>(at(idx));
}

ValueType ConstantPool::load_type(std::int32_t idx) const {
  const CpEntry& e = at(idx);
  switch (e.kind) {
    case CpEntry::Kind::Int: return ValueType::Int;
    case CpEntry::Kind::Long: return ValueType::Long;
    case CpEntry::Kind::Float: return ValueType::Float;
    case CpEntry::Kind::Double: return ValueType::Double;
    case CpEntry::Kind::Str: return ValueType::Ref;
    case CpEntry::Kind::Field: return e.field.type;
    case CpEntry::Kind::Class: return ValueType::Ref;
    case CpEntry::Kind::Method: return e.method.return_type;
  }
  return ValueType::Int;
}

std::optional<std::int32_t> ClassDef::instance_slot(
    const std::string& f) const {
  for (std::size_t i = 0; i < instance_fields.size(); ++i) {
    if (instance_fields[i].first == f) {
      return static_cast<std::int32_t>(i);
    }
  }
  return std::nullopt;
}

std::optional<std::int32_t> ClassDef::static_slot(const std::string& f) const {
  for (std::size_t i = 0; i < static_fields.size(); ++i) {
    if (static_fields[i].first == f) {
      return static_cast<std::int32_t>(i);
    }
  }
  return std::nullopt;
}

const Method* Program::find(const std::string& qualified_name) const {
  for (const Method& m : methods) {
    if (m.name == qualified_name) return &m;
  }
  return nullptr;
}

const ClassDef* Program::find_class(const std::string& name) const {
  auto it = classes.find(name);
  return it == classes.end() ? nullptr : &it->second;
}

}  // namespace javaflow::bytecode
