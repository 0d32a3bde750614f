/**
 * @file
 * The x86-64 register database.
 *
 * Registers are identified by dense integer ids into a global table. Every
 * register carries its architectural class, its width, and a *canonical*
 * register id: the full-width register it aliases (EAX, AX, AL and AH all
 * canonicalize to RAX). Dependency tracking in the graph builder and in the
 * throughput simulator is done on canonical ids, which models the partial
 * register aliasing relevant for data dependencies.
 *
 * Thread-safety: the register table is built once and immutable
 * afterwards; every lookup function is safe to call concurrently.
 */
#ifndef GRANITE_ASM_REGISTERS_H_
#define GRANITE_ASM_REGISTERS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace granite::assembly {

/** Dense register id; an index into RegisterTable(). */
using Register = int;

/** Sentinel for "no register" (e.g. a memory operand without an index). */
inline constexpr Register kInvalidRegister = -1;

/** Architectural classes of registers. */
enum class RegisterClass {
  kGeneralPurpose,
  kVector,              ///< XMM/YMM.
  kFlags,               ///< EFLAGS, modeled as a single value.
  kSegment,             ///< CS/DS/ES/FS/GS/SS.
  kInstructionPointer,  ///< RIP (for RIP-relative addressing).
};

/** Static description of one register. */
struct RegisterInfo {
  std::string name;        ///< Canonical upper-case assembly name.
  Register canonical;      ///< Id of the aliased full-width register.
  int width_bits;          ///< Architectural width.
  RegisterClass reg_class; ///< Class of the register.
};

/** The full register table (general purpose at all widths, XMM/YMM,
 * EFLAGS, segment registers, RIP). */
const std::vector<RegisterInfo>& RegisterTable();

/** Looks a register up by (case-insensitive) name. */
std::optional<Register> LookupRegister(std::string_view name);

/** Like LookupRegister but fails on unknown names; for internal tables. */
Register RegisterByName(std::string_view name);

/** Returns the static info of a valid register id. */
const RegisterInfo& GetRegisterInfo(Register reg);

/** Returns the full-width register aliased by `reg`. */
Register CanonicalRegister(Register reg);

/** Returns the assembly name of `reg`. */
const std::string& RegisterName(Register reg);

/** True when `reg` belongs to the given class. */
bool IsRegisterClass(Register reg, RegisterClass reg_class);

/** The id of the EFLAGS pseudo-register. */
Register FlagsRegister();

/** All canonical (full-width) general-purpose registers, RSP included. */
const std::vector<Register>& CanonicalGpRegisters();

/** All canonical vector registers (XMM0..XMM15). */
const std::vector<Register>& CanonicalVectorRegisters();

/**
 * Returns the register aliasing `canonical` with the requested width
 * (e.g. RAX at 32 bits is EAX). For 8-bit widths the low-byte register is
 * returned. Fails when no alias of that width exists.
 */
Register SubRegister(Register canonical, int width_bits);

}  // namespace granite::assembly

#endif  // GRANITE_ASM_REGISTERS_H_
