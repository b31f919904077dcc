// JavaFlow ByteCode instruction set (paper Appendix A).
//
// Every ByteCode instruction architected in the JVM spec that the paper
// enumerates is described here, together with the metadata the JavaFlow
// machine needs at load time:
//   * the instruction group (Appendix A table captions),
//   * the pop/push counts ("the number of stack elements removed and
//     replaced for each instruction") counted per *value*, exactly as the
//     paper's appendix counts them,
//   * the node type of the heterogeneous DataFlow fabric that can host the
//     instruction (Figure 26),
//   * the execution cost in mesh cycles (Table 17),
//   * a type signature used by the verifier and the reference interpreter.
//
// The `_quick` opcodes are the interpreter-internal resolved forms of the
// storage instructions (paper §3.6 / Table 5); they are not part of the
// architected set and are produced only by runtime rewriting.
#pragma once

#include <cstdint>
#include <string_view>

namespace javaflow::bytecode {

// Instruction groups, one per Appendix A table.
enum class Group : std::uint8_t {
  FpConversion,  // Table 29
  ArithInteger,  // Table 30
  ArithMove,     // Table 31 (constants, dup/pop/swap family)
  FpArith,       // Table 32 (incl. lcmp/ldiv as the paper groups them)
  ControlFlow,   // Table 33 (goto + conditional jumps)
  Call,          // Table 34
  Return,        // Table 35 (incl. athrow)
  MemConstant,   // Table 36 (ldc family; unordered constant-pool access)
  MemRead,       // Table 37
  MemWrite,      // Table 38
  LocalRead,     // Table 39 (loads)
  LocalWrite,    // Table 40 (stores)
  LocalInc,      // iinc (paper describes it as its own register op, §6.3)
  Special,       // Table 41 (GPP-serviced operations)
};

// Heterogeneous fabric node classes (Figure 26). `Blank` nodes appear only
// in the Sparse configuration; `Anchor` nodes head each method's chain.
enum class NodeType : std::uint8_t {
  Arithmetic,
  FloatingPoint,
  Storage,
  Control,
  Blank,
  Anchor,
};

// Operand kinds carried by an instruction. The repo keeps methods in the
// linear-address form the fabric uses (one instruction per linear slot), so
// operands are typed fields rather than encoded bytes.
enum class OperandKind : std::uint8_t {
  None,
  Imm,        // bipush / sipush / newarray element type
  Local,      // local register index (iinc also carries an increment)
  Cp,         // constant-pool index (ldc family, field refs, method refs,
              // new/anewarray/checkcast/instanceof class refs)
  Branch,     // branch target, expressed as a linear instruction index
  Switch,     // index into the owning method's switch-table side array
};

// Sentinel for signature-dependent pop/push counts (invokes,
// multianewarray) — the real counts are resolved when a method is
// assembled and stored on the Instruction itself.
inline constexpr std::uint8_t kVarCount = 255;

// Java value types (Figure 8 / Figure 15). A value occupies one stack slot
// regardless of width (see DESIGN.md, "Value-based stack"). Defined here,
// next to the signature alphabet below, because the `sig` strings in the
// opcode table are spelled in exactly these types.
enum class ValueType : std::uint8_t { Int, Long, Float, Double, Ref, Void };

std::string_view value_type_name(ValueType t) noexcept;

// ---- signature-character helpers ----
//
// Single source of truth for decoding the verifier transfer signatures
// in the opcode table below (the verifier, the fabric lint pass and the
// bounds analyzer all consume these; they used to carry private copies).

// I/J/F/D/A -> the concrete value type; anything else -> Void.
ValueType type_from_sig_char(char c) noexcept;
// True for the concretely typed signature characters I J F D A.
bool is_typed_sig_char(char c) noexcept;
// True for the positional generic slots X Y Z W (dup/pop/swap family).
bool is_generic_sig_char(char c) noexcept;

// X-macro master table: OP(name, byte, Group, pop, push, OperandKind, sig)
//
// `sig` is a verifier transfer signature "<pops)>(pushes>" using
//   I=int  J=long  F=float  D=double  A=reference
//   X,Y,Z,W = generic slots matched positionally (dup/pop/swap family)
//   ?      = resolved from the constant pool / call signature at verify time
// Pops are listed bottom-to-top of stack (leftmost is deepest), matching
// the Appendix A "Stack Before" columns.
#define JAVAFLOW_OPCODE_TABLE(OP)                                             \
  /* ---- Table 41: special (also nop) ---- */                                \
  OP(nop, 0x00, Special, 0, 0, None, ">")                                     \
  /* ---- Table 31: arithmetic/move constants ---- */                         \
  OP(aconst_null, 0x01, ArithMove, 0, 1, None, ">A")                          \
  OP(iconst_m1, 0x02, ArithMove, 0, 1, None, ">I")                            \
  OP(iconst_0, 0x03, ArithMove, 0, 1, None, ">I")                             \
  OP(iconst_1, 0x04, ArithMove, 0, 1, None, ">I")                             \
  OP(iconst_2, 0x05, ArithMove, 0, 1, None, ">I")                             \
  OP(iconst_3, 0x06, ArithMove, 0, 1, None, ">I")                             \
  OP(iconst_4, 0x07, ArithMove, 0, 1, None, ">I")                             \
  OP(iconst_5, 0x08, ArithMove, 0, 1, None, ">I")                             \
  OP(lconst_0, 0x09, ArithMove, 0, 1, None, ">J")                             \
  OP(lconst_1, 0x0a, ArithMove, 0, 1, None, ">J")                             \
  OP(fconst_0, 0x0b, ArithMove, 0, 1, None, ">F")                             \
  OP(fconst_1, 0x0c, ArithMove, 0, 1, None, ">F")                             \
  OP(fconst_2, 0x0d, ArithMove, 0, 1, None, ">F")                             \
  OP(dconst_0, 0x0e, ArithMove, 0, 1, None, ">D")                             \
  OP(dconst_1, 0x0f, ArithMove, 0, 1, None, ">D")                             \
  OP(bipush, 0x10, ArithMove, 0, 1, Imm, ">I")                                \
  OP(sipush, 0x11, ArithMove, 0, 1, Imm, ">I")                                \
  /* ---- Table 36: memory constants ---- */                                  \
  OP(ldc, 0x12, MemConstant, 0, 1, Cp, ">?")                                  \
  OP(ldc_w, 0x13, MemConstant, 0, 1, Cp, ">?")                                \
  OP(ldc2_w, 0x14, MemConstant, 0, 1, Cp, ">?")                               \
  /* ---- Table 39: local reads ---- */                                       \
  OP(iload, 0x15, LocalRead, 0, 1, Local, ">I")                               \
  OP(lload, 0x16, LocalRead, 0, 1, Local, ">J")                               \
  OP(fload, 0x17, LocalRead, 0, 1, Local, ">F")                               \
  OP(dload, 0x18, LocalRead, 0, 1, Local, ">D")                               \
  OP(aload, 0x19, LocalRead, 0, 1, Local, ">A")                               \
  OP(iload_0, 0x1a, LocalRead, 0, 1, None, ">I")                              \
  OP(iload_1, 0x1b, LocalRead, 0, 1, None, ">I")                              \
  OP(iload_2, 0x1c, LocalRead, 0, 1, None, ">I")                              \
  OP(iload_3, 0x1d, LocalRead, 0, 1, None, ">I")                              \
  OP(lload_0, 0x1e, LocalRead, 0, 1, None, ">J")                              \
  OP(lload_1, 0x1f, LocalRead, 0, 1, None, ">J")                              \
  OP(lload_2, 0x20, LocalRead, 0, 1, None, ">J")                              \
  OP(lload_3, 0x21, LocalRead, 0, 1, None, ">J")                              \
  OP(fload_0, 0x22, LocalRead, 0, 1, None, ">F")                              \
  OP(fload_1, 0x23, LocalRead, 0, 1, None, ">F")                              \
  OP(fload_2, 0x24, LocalRead, 0, 1, None, ">F")                              \
  OP(fload_3, 0x25, LocalRead, 0, 1, None, ">F")                              \
  OP(dload_0, 0x26, LocalRead, 0, 1, None, ">D")                              \
  OP(dload_1, 0x27, LocalRead, 0, 1, None, ">D")                              \
  OP(dload_2, 0x28, LocalRead, 0, 1, None, ">D")                              \
  OP(dload_3, 0x29, LocalRead, 0, 1, None, ">D")                              \
  OP(aload_0, 0x2a, LocalRead, 0, 1, None, ">A")                              \
  OP(aload_1, 0x2b, LocalRead, 0, 1, None, ">A")                              \
  OP(aload_2, 0x2c, LocalRead, 0, 1, None, ">A")                              \
  OP(aload_3, 0x2d, LocalRead, 0, 1, None, ">A")                              \
  /* ---- Table 37: memory reads (arrays) ---- */                             \
  OP(iaload, 0x2e, MemRead, 2, 1, None, "AI>I")                               \
  OP(laload, 0x2f, MemRead, 2, 1, None, "AI>J")                               \
  OP(faload, 0x30, MemRead, 2, 1, None, "AI>F")                               \
  OP(daload, 0x31, MemRead, 2, 1, None, "AI>D")                               \
  OP(aaload, 0x32, MemRead, 2, 1, None, "AI>A")                               \
  OP(baload, 0x33, MemRead, 2, 1, None, "AI>I")                               \
  OP(caload, 0x34, MemRead, 2, 1, None, "AI>I")                               \
  OP(saload, 0x35, MemRead, 2, 1, None, "AI>I")                               \
  /* ---- Table 40: local writes ---- */                                      \
  OP(istore, 0x36, LocalWrite, 1, 0, Local, "I>")                             \
  OP(lstore, 0x37, LocalWrite, 1, 0, Local, "J>")                             \
  OP(fstore, 0x38, LocalWrite, 1, 0, Local, "F>")                             \
  OP(dstore, 0x39, LocalWrite, 1, 0, Local, "D>")                             \
  OP(astore, 0x3a, LocalWrite, 1, 0, Local, "A>")                             \
  OP(istore_0, 0x3b, LocalWrite, 1, 0, None, "I>")                            \
  OP(istore_1, 0x3c, LocalWrite, 1, 0, None, "I>")                            \
  OP(istore_2, 0x3d, LocalWrite, 1, 0, None, "I>")                            \
  OP(istore_3, 0x3e, LocalWrite, 1, 0, None, "I>")                            \
  OP(lstore_0, 0x3f, LocalWrite, 1, 0, None, "J>")                            \
  OP(lstore_1, 0x40, LocalWrite, 1, 0, None, "J>")                            \
  OP(lstore_2, 0x41, LocalWrite, 1, 0, None, "J>")                            \
  OP(lstore_3, 0x42, LocalWrite, 1, 0, None, "J>")                            \
  OP(fstore_0, 0x43, LocalWrite, 1, 0, None, "F>")                            \
  OP(fstore_1, 0x44, LocalWrite, 1, 0, None, "F>")                            \
  OP(fstore_2, 0x45, LocalWrite, 1, 0, None, "F>")                            \
  OP(fstore_3, 0x46, LocalWrite, 1, 0, None, "F>")                            \
  OP(dstore_0, 0x47, LocalWrite, 1, 0, None, "D>")                            \
  OP(dstore_1, 0x48, LocalWrite, 1, 0, None, "D>")                            \
  OP(dstore_2, 0x49, LocalWrite, 1, 0, None, "D>")                            \
  OP(dstore_3, 0x4a, LocalWrite, 1, 0, None, "D>")                            \
  OP(astore_0, 0x4b, LocalWrite, 1, 0, None, "A>")                            \
  OP(astore_1, 0x4c, LocalWrite, 1, 0, None, "A>")                            \
  OP(astore_2, 0x4d, LocalWrite, 1, 0, None, "A>")                            \
  OP(astore_3, 0x4e, LocalWrite, 1, 0, None, "A>")                            \
  /* ---- Table 38: memory writes (arrays) ---- */                            \
  OP(iastore, 0x4f, MemWrite, 3, 0, None, "AII>")                             \
  OP(lastore, 0x50, MemWrite, 3, 0, None, "AIJ>")                             \
  OP(fastore, 0x51, MemWrite, 3, 0, None, "AIF>")                             \
  OP(dastore, 0x52, MemWrite, 3, 0, None, "AID>")                             \
  OP(aastore, 0x53, MemWrite, 3, 0, None, "AIA>")                             \
  OP(bastore, 0x54, MemWrite, 3, 0, None, "AII>")                             \
  OP(castore, 0x55, MemWrite, 3, 0, None, "AII>")                             \
  OP(sastore, 0x56, MemWrite, 3, 0, None, "AII>")                             \
  /* ---- Table 31 (cont.): stack moves ----                                  \
   * Counts are per *value* (the machine's stack slots are values); dup2      \
   * and friends therefore act on two values. */                              \
  OP(pop, 0x57, ArithMove, 1, 0, None, "X>")                                  \
  OP(pop2, 0x58, ArithMove, 2, 0, None, "YX>")                                \
  OP(dup, 0x59, ArithMove, 1, 2, None, "X>XX")                                \
  OP(dup_x1, 0x5a, ArithMove, 2, 3, None, "YX>XYX")                           \
  OP(dup_x2, 0x5b, ArithMove, 3, 4, None, "ZYX>XZYX")                         \
  OP(dup2, 0x5c, ArithMove, 2, 4, None, "YX>YXYX")                            \
  OP(dup2_x1, 0x5d, ArithMove, 3, 5, None, "ZYX>YXZYX")                       \
  OP(dup2_x2, 0x5e, ArithMove, 4, 6, None, "WZYX>YXWZYX")                     \
  OP(swap, 0x5f, ArithMove, 2, 2, None, "YX>XY")                              \
  /* ---- Table 30: integer arithmetic (+ float add/sub groups below) ---- */ \
  OP(iadd, 0x60, ArithInteger, 2, 1, None, "II>I")                            \
  OP(ladd, 0x61, ArithInteger, 2, 1, None, "JJ>J")                            \
  OP(fadd, 0x62, FpArith, 2, 1, None, "FF>F")                                 \
  OP(dadd, 0x63, FpArith, 2, 1, None, "DD>D")                                 \
  OP(isub, 0x64, ArithInteger, 2, 1, None, "II>I")                            \
  OP(lsub, 0x65, ArithInteger, 2, 1, None, "JJ>J")                            \
  OP(fsub, 0x66, FpArith, 2, 1, None, "FF>F")                                 \
  OP(dsub, 0x67, FpArith, 2, 1, None, "DD>D")                                 \
  OP(imul, 0x68, ArithInteger, 2, 1, None, "II>I")                            \
  OP(lmul, 0x69, ArithInteger, 2, 1, None, "JJ>J")                            \
  OP(fmul, 0x6a, FpArith, 2, 1, None, "FF>F")                                 \
  OP(dmul, 0x6b, FpArith, 2, 1, None, "DD>D")                                 \
  OP(idiv, 0x6c, ArithInteger, 2, 1, None, "II>I")                            \
  OP(ldiv_, 0x6d, FpArith, 2, 1, None, "JJ>J")                                \
  OP(fdiv, 0x6e, FpArith, 2, 1, None, "FF>F")                                 \
  OP(ddiv, 0x6f, FpArith, 2, 1, None, "DD>D")                                 \
  OP(irem, 0x70, ArithInteger, 2, 1, None, "II>I")                            \
  OP(lrem, 0x71, ArithInteger, 2, 1, None, "JJ>J")                            \
  OP(frem, 0x72, FpArith, 2, 1, None, "FF>F")                                 \
  OP(drem, 0x73, FpArith, 2, 1, None, "DD>D")                                 \
  OP(ineg, 0x74, ArithInteger, 1, 1, None, "I>I")                             \
  OP(lneg, 0x75, ArithInteger, 1, 1, None, "J>J")                             \
  OP(fneg, 0x76, FpArith, 1, 1, None, "F>F")                                  \
  OP(dneg, 0x77, FpArith, 1, 1, None, "D>D")                                  \
  OP(ishl, 0x78, ArithInteger, 2, 1, None, "II>I")                            \
  OP(lshl, 0x79, ArithInteger, 2, 1, None, "JI>J")                            \
  OP(ishr, 0x7a, ArithInteger, 2, 1, None, "II>I")                            \
  OP(lshr, 0x7b, ArithInteger, 2, 1, None, "JI>J")                            \
  OP(iushr, 0x7c, ArithInteger, 2, 1, None, "II>I")                           \
  OP(lushr, 0x7d, ArithInteger, 2, 1, None, "JI>J")                           \
  OP(iand, 0x7e, ArithInteger, 2, 1, None, "II>I")                            \
  OP(land, 0x7f, ArithInteger, 2, 1, None, "JJ>J")                            \
  OP(ior, 0x80, ArithInteger, 2, 1, None, "II>I")                             \
  OP(lor, 0x81, ArithInteger, 2, 1, None, "JJ>J")                             \
  OP(ixor, 0x82, ArithInteger, 2, 1, None, "II>I")                            \
  OP(lxor, 0x83, ArithInteger, 2, 1, None, "JJ>J")                            \
  /* ---- Table 39 (cont.): local increment ---- */                           \
  OP(iinc, 0x84, LocalInc, 0, 0, Local, ">")                                  \
  /* ---- Table 29: conversions ---- */                                       \
  OP(i2l, 0x85, FpConversion, 1, 1, None, "I>J")                              \
  OP(i2f, 0x86, FpConversion, 1, 1, None, "I>F")                              \
  OP(i2d, 0x87, FpConversion, 1, 1, None, "I>D")                              \
  OP(l2i, 0x88, FpConversion, 1, 1, None, "J>I")                              \
  OP(l2f, 0x89, FpConversion, 1, 1, None, "J>F")                              \
  OP(l2d, 0x8a, FpConversion, 1, 1, None, "J>D")                              \
  OP(f2i, 0x8b, FpConversion, 1, 1, None, "F>I")                              \
  OP(f2l, 0x8c, FpConversion, 1, 1, None, "F>J")                              \
  OP(f2d, 0x8d, FpConversion, 1, 1, None, "F>D")                              \
  OP(d2i, 0x8e, FpConversion, 1, 1, None, "D>I")                              \
  OP(d2l, 0x8f, FpConversion, 1, 1, None, "D>J")                              \
  OP(d2f, 0x90, FpConversion, 1, 1, None, "D>F")                              \
  OP(i2b, 0x91, FpConversion, 1, 1, None, "I>I")                              \
  OP(i2c, 0x92, FpConversion, 1, 1, None, "I>I")                              \
  OP(i2s, 0x93, FpConversion, 1, 1, None, "I>I")                              \
  /* ---- Table 32 (cont.): comparisons ---- */                               \
  OP(lcmp, 0x94, FpArith, 2, 1, None, "JJ>I")                                 \
  OP(fcmpl, 0x95, FpArith, 2, 1, None, "FF>I")                                \
  OP(fcmpg, 0x96, FpArith, 2, 1, None, "FF>I")                                \
  OP(dcmpl, 0x97, FpArith, 2, 1, None, "DD>I")                                \
  OP(dcmpg, 0x98, FpArith, 2, 1, None, "DD>I")                                \
  /* ---- Table 33: control flow ---- */                                      \
  OP(ifeq, 0x99, ControlFlow, 1, 0, Branch, "I>")                             \
  OP(ifne, 0x9a, ControlFlow, 1, 0, Branch, "I>")                             \
  OP(iflt, 0x9b, ControlFlow, 1, 0, Branch, "I>")                             \
  OP(ifge, 0x9c, ControlFlow, 1, 0, Branch, "I>")                             \
  OP(ifgt, 0x9d, ControlFlow, 1, 0, Branch, "I>")                             \
  OP(ifle, 0x9e, ControlFlow, 1, 0, Branch, "I>")                             \
  OP(if_icmpeq, 0x9f, ControlFlow, 2, 0, Branch, "II>")                       \
  OP(if_icmpne, 0xa0, ControlFlow, 2, 0, Branch, "II>")                       \
  OP(if_icmplt, 0xa1, ControlFlow, 2, 0, Branch, "II>")                       \
  OP(if_icmpge, 0xa2, ControlFlow, 2, 0, Branch, "II>")                       \
  OP(if_icmpgt, 0xa3, ControlFlow, 2, 0, Branch, "II>")                       \
  OP(if_icmple, 0xa4, ControlFlow, 2, 0, Branch, "II>")                       \
  OP(if_acmpeq, 0xa5, ControlFlow, 2, 0, Branch, "AA>")                       \
  OP(if_acmpne, 0xa6, ControlFlow, 2, 0, Branch, "AA>")                       \
  OP(goto_, 0xa7, ControlFlow, 0, 0, Branch, ">")                             \
  /* ---- Table 41 (cont.): jsr/ret (Finally support, §6.3 Special) ---- */   \
  OP(jsr, 0xa8, Special, 0, 1, Branch, ">A")                                  \
  OP(ret, 0xa9, Special, 0, 0, Local, ">")                                    \
  OP(tableswitch, 0xaa, Special, 1, 0, Switch, "I>")                          \
  OP(lookupswitch, 0xab, Special, 1, 0, Switch, "I>")                         \
  /* ---- Table 35: returns ---- */                                           \
  OP(ireturn, 0xac, Return, 1, 0, None, "I>")                                 \
  OP(lreturn, 0xad, Return, 1, 0, None, "J>")                                 \
  OP(freturn, 0xae, Return, 1, 0, None, "F>")                                 \
  OP(dreturn, 0xaf, Return, 1, 0, None, "D>")                                 \
  OP(areturn, 0xb0, Return, 1, 0, None, "A>")                                 \
  OP(return_, 0xb1, Return, 0, 0, None, ">")                                  \
  /* ---- Tables 37/38 (cont.): field access ---- */                          \
  OP(getstatic, 0xb2, MemRead, 0, 1, Cp, ">?")                                \
  OP(putstatic, 0xb3, MemWrite, 1, 0, Cp, "?>")                               \
  OP(getfield, 0xb4, MemRead, 1, 1, Cp, "A>?")                                \
  OP(putfield, 0xb5, MemWrite, 2, 0, Cp, "A?>")                               \
  /* ---- Table 34: calls (pop/push resolved per call signature) ---- */      \
  OP(invokevirtual, 0xb6, Call, 255, 255, Cp, "?>?")                          \
  OP(invokespecial, 0xb7, Call, 255, 255, Cp, "?>?")                          \
  OP(invokestatic, 0xb8, Call, 255, 255, Cp, "?>?")                           \
  OP(invokeinterface, 0xb9, Call, 255, 255, Cp, "?>?")                        \
  /* ---- Table 41 (cont.): object/array services ---- */                     \
  OP(new_, 0xbb, Special, 0, 1, Cp, ">A")                                     \
  OP(newarray, 0xbc, Special, 1, 1, Imm, "I>A")                               \
  OP(anewarray, 0xbd, Special, 1, 1, Cp, "I>A")                               \
  OP(arraylength, 0xbe, Special, 1, 1, None, "A>I")                           \
  OP(athrow, 0xbf, Return, 1, 0, None, "A>")                                  \
  OP(checkcast, 0xc0, Special, 1, 1, Cp, "A>A")                               \
  OP(instanceof_, 0xc1, Special, 1, 1, Cp, "A>I")                             \
  OP(monitorenter, 0xc2, Special, 1, 0, None, "A>")                           \
  OP(monitorexit, 0xc3, Special, 1, 0, None, "A>")                            \
  OP(multianewarray, 0xc5, Special, 255, 1, Cp, "?>A")                        \
  OP(ifnull, 0xc6, ControlFlow, 1, 0, Branch, "A>")                           \
  OP(ifnonnull, 0xc7, ControlFlow, 1, 0, Branch, "A>")                        \
  OP(goto_w, 0xc8, ControlFlow, 0, 0, Branch, ">")                            \
  OP(jsr_w, 0xc9, Special, 0, 1, Branch, ">A")                                \
  /* ---- Interpreter-internal resolved ("_Quick") storage forms (§3.6,      \
   * Table 5). Identical machine behaviour; counted separately by the        \
   * profiler. ---- */                                                        \
  OP(ldc_quick, 0xcb, MemConstant, 0, 1, Cp, ">?")                            \
  OP(ldc_w_quick, 0xcc, MemConstant, 0, 1, Cp, ">?")                          \
  OP(ldc2_w_quick, 0xcd, MemConstant, 0, 1, Cp, ">?")                         \
  OP(getfield_quick, 0xce, MemRead, 1, 1, Cp, "A>?")                          \
  OP(putfield_quick, 0xcf, MemWrite, 2, 0, Cp, "A?>")                         \
  OP(getstatic_quick, 0xd0, MemRead, 0, 1, Cp, ">?")                          \
  OP(putstatic_quick, 0xd1, MemWrite, 1, 0, Cp, "?>")

enum class Op : std::uint8_t {
#define JAVAFLOW_ENUM(name, byte, group, pop, push, operand, sig) name = byte,
  JAVAFLOW_OPCODE_TABLE(JAVAFLOW_ENUM)
#undef JAVAFLOW_ENUM
};

// Static metadata for one opcode.
struct OpInfo {
  std::string_view name;
  Group group = Group::Special;
  std::uint8_t pop = 0;    // kVarCount => signature-dependent
  std::uint8_t push = 0;   // kVarCount => signature-dependent
  OperandKind operand = OperandKind::None;
  std::string_view sig;    // verifier transfer signature
  bool valid = false;      // false for unassigned opcode bytes
};

// Metadata lookup. O(1); every Op value defined above is `valid`.
const OpInfo& op_info(Op op) noexcept;

// True if `byte` names an architected (or quick) opcode in the table.
bool is_valid_opcode(std::uint8_t byte) noexcept;

std::string_view op_name(Op op) noexcept;

// The fabric node class that can host this instruction group (Figure 26).
NodeType node_type_for(Group g) noexcept;

// Execution cost in mesh cycles (Table 17):
//   Move 1; floating-point arithmetic 10; integer-float conversion 5;
//   special, logical, register, memory (and control/calls/returns) 2.
int execution_mesh_cycles(Group g) noexcept;

// Paper static-mix category (Table 6 columns).
enum class StaticMixCategory : std::uint8_t { Arith, Float, Control, Storage };
StaticMixCategory static_mix_category(Group g) noexcept;

// Paper dynamic-mix category (Table 2 columns).
enum class DynamicMixCategory : std::uint8_t {
  ArithFixed,     // integer arithmetic/logic
  ArithFloat,     // fp arithmetic + conversions
  LocalsStack,    // locals, iinc, constants-to-stack, dup/pop/swap moves
  ConstantsStg,   // ldc family (unordered constant storage)
  FieldsArrayStg, // ordered field/array storage
  Control,        // jumps/goto
  CallsRets,      // invokes + returns
  ObjectSpecial,  // GPP-serviced specials
};
DynamicMixCategory dynamic_mix_category(Group g) noexcept;

// True for groups whose instructions change control flow when they fire
// (jumps, calls, returns) — these nodes buffer serial tokens (§6.3).
bool is_control_transfer(Group g) noexcept;

// True if the quick-rewriting pass applies (base storage forms, Table 5).
bool has_quick_form(Op op) noexcept;
// The resolved counterpart of a base storage opcode (op must satisfy
// has_quick_form).
Op quick_form(Op op) noexcept;
// True if `op` is one of the interpreter-internal `_quick` forms.
bool is_quick(Op op) noexcept;

}  // namespace javaflow::bytecode
