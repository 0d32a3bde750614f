/**
 * @file
 * Instruction semantics catalog.
 *
 * For every supported mnemonic the catalog records how its explicit
 * operands are used (read / write / read-write, per supported arity),
 * which registers it touches implicitly (RAX/RDX for MUL and DIV, RSP for
 * PUSH/POP, RSI/RDI for string operations), and whether it reads or writes
 * EFLAGS. This is the information the original GRANITE pipeline obtains
 * from LLVM; the graph builder (src/graph), the throughput simulator
 * (src/uarch) and the autotuner's legality checks (src/autotune) consume
 * it.
 *
 * DataFlowFor() is the one place that turns a row plus a concrete
 * instruction into register and memory read/write sets: the throughput
 * oracle and the autotuner read the same sets, so a label and a
 * legality verdict can never disagree about what an instruction touches.
 *
 * The catalog is loaded from the declarative instruction table in
 * semantics.cc — one constexpr row per mnemonic family — and the checked
 * in ISA reference (docs/ISA.md) is generated from the same rows via
 * src/asm/isa_doc, so code and documentation cannot drift.
 *
 * Thread-safety: the catalog singleton is immutable after first use;
 * Find/Require/Mnemonics and the free functions are safe to call
 * concurrently.
 */
#ifndef GRANITE_ASM_SEMANTICS_H_
#define GRANITE_ASM_SEMANTICS_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asm/instruction.h"
#include "asm/registers.h"

namespace granite::assembly {

/** How an instruction uses one explicit operand. */
enum class OperandUsage {
  kRead,
  kWrite,
  kReadWrite,
};

/**
 * Coarse functional categories. The throughput simulator assigns uop
 * decompositions, port sets and latencies per category (and per
 * microarchitecture), mirroring how llvm-mca-style models organize their
 * scheduling tables.
 */
enum class InstructionCategory {
  kMove,              ///< MOV and register-to-register copies.
  kMoveExtend,        ///< MOVZX / MOVSX / MOVSXD.
  kLea,               ///< Address computation.
  kAluSimple,         ///< ADD/SUB/AND/OR/XOR/INC/DEC/NEG/NOT.
  kAluCarry,          ///< ADC / SBB (consume the carry flag).
  kAluCompare,        ///< CMP / TEST (flags only).
  kShift,             ///< SHL/SHR/SAR/ROL/ROR.
  kShiftDouble,       ///< SHLD / SHRD.
  kBitTest,           ///< BT / BTS / BTR / BTC.
  kBitScan,           ///< BSF/BSR/POPCNT/LZCNT/TZCNT/BSWAP.
  kMulInteger,        ///< MUL / IMUL.
  kDivInteger,        ///< DIV / IDIV.
  kConditionalMove,   ///< CMOVcc.
  kSetcc,             ///< SETcc.
  kPush,              ///< PUSH.
  kPop,               ///< POP.
  kSignExtend,        ///< CDQ/CQO/CWDE/CDQE/CBW.
  kNop,               ///< NOP.
  kExchange,          ///< XCHG / XADD / CMPXCHG.
  kVecMove,           ///< Vector/FP register and memory moves.
  kVecFpAdd,          ///< FP add/sub/min/max (scalar and packed).
  kVecFpMul,          ///< FP multiply.
  kVecFpDiv,          ///< FP divide.
  kVecFpSqrt,         ///< FP square root.
  kVecFpCompare,      ///< UCOMISS-style compares (write EFLAGS).
  kVecInt,            ///< Packed integer ALU.
  kVecIntMul,         ///< Packed integer multiply.
  kVecShuffle,        ///< PSHUFD-style shuffles.
  kConvert,           ///< CVT* conversions.
  kString,            ///< MOVSB/STOSB-style string operations.
};

/** Returns a stable display name for a category. */
std::string_view InstructionCategoryName(InstructionCategory category);

/** Catalog entry for one mnemonic. */
struct InstructionSemantics {
  /** Dense index of the entry in the catalog, in [0, size()). */
  int id = 0;
  /** Canonical upper-case spelling. */
  std::string mnemonic;
  /**
   * Display name of the alias family the mnemonic belongs to (the table
   * row it was expanded from): "CMOVcc" for every CMOV condition alias,
   * "shift" for SHL/SHR/SAR/..., the mnemonic itself for singletons. Used
   * by the generated ISA reference; never consulted for semantics.
   */
  std::string family;
  InstructionCategory category = InstructionCategory::kNop;
  /**
   * Explicit operand usage for every supported operand count. An
   * instruction form with N operands matches the entry of size N.
   */
  std::vector<std::vector<OperandUsage>> usage_by_arity;
  bool reads_flags = false;
  bool writes_flags = false;
  /** Canonical registers read implicitly (beyond explicit operands). */
  std::vector<Register> implicit_reads;
  /** Canonical registers written implicitly. */
  std::vector<Register> implicit_writes;
  /** True for string ops, where a REP prefix additionally makes RCX
   * read-write. */
  bool is_string_op = false;
  /** True when the instruction reads memory implicitly (POP, MOVSB). */
  bool implicit_memory_read = false;
  /** True when the instruction writes memory implicitly (PUSH, STOSB). */
  bool implicit_memory_write = false;
  /** True when the implicit registers apply only to the one-operand form
   * (IMUL: the two- and three-operand forms skip the RAX/RDX
   * accumulator). Consumers must go through ImplicitOperandsApply(). */
  bool implicit_operands_unary_only = false;

  /** Returns the usage vector matching `operand_count`, or nullptr. */
  const std::vector<OperandUsage>* UsageForArity(
      std::size_t operand_count) const;
};

/** The singleton semantics catalog. */
class SemanticsCatalog {
 public:
  /** Returns the process-wide catalog. */
  static const SemanticsCatalog& Get();

  /**
   * Finds the entry for `mnemonic` (case-insensitive), or nullptr. The
   * canonical upper-case spelling takes one hash lookup; any other
   * spelling is upper-cased first.
   */
  const InstructionSemantics* Find(std::string_view mnemonic) const;

  /** Like Find but fails on unknown mnemonics. */
  const InstructionSemantics& Require(std::string_view mnemonic) const;

  /** All registered mnemonics, sorted. */
  std::vector<std::string> Mnemonics() const;

  /** Number of catalog entries. */
  std::size_t size() const { return entries_.size(); }

  /** The entry whose `id` is `id`, for id in [0, size()). */
  const InstructionSemantics& Row(std::size_t id) const {
    return entries_[id];
  }

 private:
  SemanticsCatalog();

  std::vector<InstructionSemantics> entries_;
  /** Canonical spelling -> index into entries_; the keys view the
   * entries' own strings. */
  std::unordered_map<std::string_view, std::size_t> index_;
};

/**
 * Resolves the per-operand usage of a concrete instruction, checking that
 * the mnemonic is known and the arity is supported. The vector lives in
 * the catalog.
 */
const std::vector<OperandUsage>& OperandUsageFor(
    const Instruction& instruction);

/** Like OperandUsageFor, for a caller that already holds the catalog row
 * of `instruction`'s mnemonic. */
const std::vector<OperandUsage>& OperandUsageFor(
    const InstructionSemantics& semantics, const Instruction& instruction);

/** True when the catalog knows `mnemonic` with the given operand count. */
bool IsSupportedInstruction(const Instruction& instruction);

/** Why the catalog cannot encode a parsed block. */
enum class UnencodableReason {
  /** The catalog has no row for a mnemonic. */
  kUnknownMnemonic,
  /** A known mnemonic with an operand count its row does not model. */
  kUnsupportedArity,
  /** A slot the row writes holds neither a register nor memory (an
   * immediate or a bare address: `ADD 5, RAX`). */
  kOperandForm,
};

/** The first instruction of a block that the catalog cannot encode. */
struct Unencodable {
  UnencodableReason reason;
  /** "unknown mnemonic FROB", "ADD with 1 operands" or "ADD operand 0 is
   * written but is an immediate". */
  std::string message;
};

/**
 * The one encodability check for blocks that enter from text: the
 * parser accepts any mnemonic, operand count and operand kind, but the
 * graph builder and the throughput oracle look every instruction up and
 * abort on one the catalog cannot encode. Returns nullopt when every
 * instruction is known with a modelled arity and writes only registers
 * and memory; allocates only for a refused block.
 */
std::optional<Unencodable> CheckEncodable(const BasicBlock& block);

/** One memory access of an instruction: the address expression plus its
 * width. `unknown` marks implicit accesses (PUSH/POP/string ops) whose
 * address is not an operand; they conservatively alias everything. */
struct MemoryAccess {
  MemoryReference reference;
  int width_bits = 64;
  bool unknown = false;
};

/**
 * Data-flow footprint of one instruction, on canonical registers with
 * EFLAGS as FlagsRegister(). Every register list is duplicate-free.
 */
struct DataFlow {
  /** The catalog row of the mnemonic. */
  const InstructionSemantics* semantics = nullptr;
  /** Registers read — explicit operands, implicit registers, flags, and
   * RCX under a REP prefix — not counting address components. */
  std::vector<Register> register_reads;
  /** Base, index and segment registers of memory and address operands. */
  std::vector<Register> address_reads;
  /** Registers written, with the same sources as `register_reads`. */
  std::vector<Register> register_writes;
  /** One entry per memory-read operand, then one `unknown` entry for an
   * implicit read. */
  std::vector<MemoryAccess> memory_reads;
  /** Like `memory_reads`, for writes. */
  std::vector<MemoryAccess> memory_writes;

  /** True when `canonical` is in `register_reads` or `address_reads`. */
  bool ReadsRegister(Register canonical) const;
  /** True when `canonical` is in `register_writes`. */
  bool WritesRegister(Register canonical) const;
};

/**
 * Decodes the data flow of `instruction`. The instruction must be
 * supported by the catalog (IsSupportedInstruction).
 */
DataFlow DataFlowFor(const Instruction& instruction);

/** Like DataFlowFor, decoding into `*flow` and reusing the capacity of
 * its lists, so a caller that keeps one DataFlow per slot decodes
 * without allocating. */
void DataFlowFor(const Instruction& instruction, DataFlow* flow);

/**
 * True when the implicit register operands of `semantics` apply to an
 * instruction with `operand_count` explicit operands. This is false only
 * for the two- and three-operand forms of IMUL, which do not use the
 * RAX/RDX accumulator of the one-operand form.
 */
bool ImplicitOperandsApply(const InstructionSemantics& semantics,
                           std::size_t operand_count);

}  // namespace granite::assembly

#endif  // GRANITE_ASM_SEMANTICS_H_
