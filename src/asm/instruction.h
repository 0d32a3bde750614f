/**
 * @file
 * Instructions and basic blocks: the input objects of GRANITE.
 *
 * A basic block is a straight-line sequence of instructions with neither
 * incoming nor outgoing branches (paper §1), which is why branch
 * instructions never appear here.
 *
 * Thread-safety: plain value types with no shared state — safe to read
 * concurrently; concurrent mutation of one object needs external
 * exclusion, like any value.
 */
#ifndef GRANITE_ASM_INSTRUCTION_H_
#define GRANITE_ASM_INSTRUCTION_H_

#include <string>
#include <string_view>
#include <vector>

#include "asm/operand.h"

namespace granite::assembly {

/** The instruction prefixes the parser accepts, upper-case: LOCK, then
 * the REP family. The default vocabulary assigns their token ids in this
 * order, so it is part of the checkpoint format. */
inline constexpr std::string_view kInstructionPrefixes[] = {
    "LOCK", "REP", "REPE", "REPZ", "REPNE", "REPNZ"};

/** One decoded x86-64 instruction. */
struct Instruction {
  /** Upper-case mnemonic, e.g. "ADD". */
  std::string mnemonic;
  /** Upper-case prefixes in source order, e.g. {"LOCK"}. */
  std::vector<std::string> prefixes;
  /** Explicit operands, destination first (Intel order). */
  std::vector<Operand> operands;

  bool operator==(const Instruction&) const = default;

  /** True when `prefix` is present (case-sensitive; prefixes are stored
   * upper-case). */
  bool HasPrefix(const std::string& prefix) const;

  /** True when any REP-family prefix (REP, REPE, REPZ, REPNE, REPNZ) is
   * present. */
  bool HasRepPrefix() const;

  /** Appends the Intel-syntax rendering, e.g.
   * "LOCK ADD DWORD PTR [RAX], EBX". */
  void AppendTo(std::string& out) const;

  /** AppendTo into a fresh string. */
  std::string ToString() const;
};

/** A basic block: a branch-free instruction sequence. */
struct BasicBlock {
  std::vector<Instruction> instructions;

  bool operator==(const BasicBlock&) const = default;

  std::size_t size() const { return instructions.size(); }
  bool empty() const { return instructions.empty(); }

  /**
   * Appends the canonical block text: one instruction per line, joined
   * by '\n' with no trailing newline. Fingerprints, shard routes, cache
   * keys, measurement-noise seeds and corpus records all hash or store
   * these exact bytes (docs/ARCHITECTURE.md, "canonical block text").
   */
  void AppendTo(std::string& out) const;

  /** AppendTo into a fresh string. */
  std::string ToString() const;
};

}  // namespace granite::assembly

#endif  // GRANITE_ASM_INSTRUCTION_H_
