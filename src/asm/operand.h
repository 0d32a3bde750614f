/**
 * @file
 * Operand model for x86-64 instructions.
 *
 * An operand is a register, an integer immediate, a floating-point
 * immediate, a memory reference (base + index*scale + displacement with an
 * optional segment override), or a bare address computation (the source
 * operand of LEA, which computes an address without touching memory).
 *
 * Thread-safety: plain value types with no shared state — safe to read
 * concurrently; concurrent mutation of one object needs external
 * exclusion, like any value.
 */
#ifndef GRANITE_ASM_OPERAND_H_
#define GRANITE_ASM_OPERAND_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "asm/registers.h"

namespace granite::assembly {

/** The discriminator of Operand. Mirrors the value-node types of the
 * paper's Table 2. */
enum class OperandKind {
  kRegister,
  kImmediate,
  kFpImmediate,
  kMemory,   ///< A memory access through an address computation.
  kAddress,  ///< A bare address computation (LEA source).
};

/** A memory address expression: segment:[base + index*scale + disp]. */
struct MemoryReference {
  Register base = kInvalidRegister;
  Register index = kInvalidRegister;
  int scale = 1;  ///< 1, 2, 4 or 8; meaningful only when index is set.
  int64_t displacement = 0;
  Register segment = kInvalidRegister;

  /** True when at least one component is present. */
  bool IsValid() const {
    return base != kInvalidRegister || index != kInvalidRegister ||
           displacement != 0 || segment != kInvalidRegister;
  }

  bool operator==(const MemoryReference&) const = default;

  /** Appends the bracketed Intel-syntax expression, e.g. "[RAX + 4*RBX]".
   * A negative displacement after a register prints as " - <magnitude>"
   * (INT64_MIN included: the magnitude is computed unsigned). */
  void AppendTo(std::string& out) const;

  /** AppendTo into a fresh string. */
  std::string ToString() const;
};

/** One instruction operand. */
class Operand {
 public:
  /** Creates a register operand. */
  static Operand Reg(Register reg);

  /** Creates an integer immediate operand. */
  static Operand Imm(int64_t value);

  /** Creates a floating-point immediate operand. */
  static Operand FpImm(double value);

  /**
   * Creates a memory operand.
   * @param reference The address expression.
   * @param width_bits Access width in bits (8/16/32/64/128/256).
   */
  static Operand Mem(const MemoryReference& reference, int width_bits);

  /** Creates an address-computation operand (LEA source). */
  static Operand Addr(const MemoryReference& reference);

  OperandKind kind() const { return kind_; }

  /** The register of a kRegister operand. */
  Register reg() const;

  /** The value of a kImmediate operand. */
  int64_t imm() const;

  /** The value of a kFpImmediate operand. */
  double fp_imm() const;

  /** The address expression of a kMemory or kAddress operand. */
  const MemoryReference& mem() const;

  /** Access width of a kMemory operand, in bits. */
  int width_bits() const;

  bool operator==(const Operand&) const = default;

  /**
   * Appends the Intel-syntax rendering. An fp immediate prints in `%g`
   * form (6 significant digits) when that reads back as the same double,
   * else with the fewest digits (at most 17) that do; a ".0" is added
   * when the text would otherwise read as an integer.
   */
  void AppendTo(std::string& out) const;

  /** AppendTo into a fresh string. */
  std::string ToString() const;

 private:
  Operand() = default;

  OperandKind kind_ = OperandKind::kImmediate;
  Register reg_ = kInvalidRegister;
  int64_t imm_ = 0;
  double fp_imm_ = 0.0;
  MemoryReference mem_;
  int width_bits_ = 0;
};

/** Returns the "DWORD PTR"-style width keyword for a bit width. */
std::string_view MemoryWidthKeyword(int width_bits);

}  // namespace granite::assembly

#endif  // GRANITE_ASM_OPERAND_H_
