#include "autotune/transforms.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "asm/parser.h"
#include "asm/semantics.h"
#include "base/logging.h"
#include "base/string_util.h"

namespace granite::autotune {
namespace {

using assembly::BasicBlock;
using assembly::DataFlow;
using assembly::Instruction;
using assembly::InstructionSemantics;
using assembly::MemoryAccess;
using assembly::MemoryReference;
using assembly::Operand;
using assembly::OperandKind;
using assembly::OperandUsage;
using assembly::Register;

/** True when the flags write of `semantics` redefines the whole flags
 * register in the catalog's one-register model. INC and DEC are the
 * classic partial writers (they preserve CF), so they never *kill* a
 * flags definition — a dropped def could still leak through them. */
bool WritesAllFlags(const InstructionSemantics& semantics) {
  return semantics.writes_flags && semantics.mnemonic != "INC" &&
         semantics.mnemonic != "DEC";
}

}  // namespace

bool MayAlias(const MemoryAccess& a, const MemoryAccess& b) {
  if (a.unknown || b.unknown) return true;
  // Disjointness can only be proven against the *identical* register
  // environment: same base/index/scale/segment register ids. Two
  // different registers may hold the same address, and even aliases of
  // one canonical register (EAX vs RAX) may differ in the upper bits.
  if (a.reference.base != b.reference.base) return true;
  if (a.reference.index != b.reference.index) return true;
  if (a.reference.index != assembly::kInvalidRegister &&
      a.reference.scale != b.reference.scale) {
    return true;
  }
  if (a.reference.segment != b.reference.segment) return true;
  const std::int64_t a_begin = a.reference.displacement;
  const std::int64_t a_end = a_begin + std::max(a.width_bits, 8) / 8;
  const std::int64_t b_begin = b.reference.displacement;
  const std::int64_t b_end = b_begin + std::max(b.width_bits, 8) / 8;
  return a_begin < b_end && b_begin < a_end;
}

bool Conflicts(const DataFlow& a, const DataFlow& b) {
  for (const Register reg : a.register_writes) {
    if (b.ReadsRegister(reg) || b.WritesRegister(reg)) return true;
  }
  for (const Register reg : b.register_writes) {
    if (a.ReadsRegister(reg)) return true;
  }
  for (const MemoryAccess& write : a.memory_writes) {
    for (const MemoryAccess& other : b.memory_reads) {
      if (MayAlias(write, other)) return true;
    }
    for (const MemoryAccess& other : b.memory_writes) {
      if (MayAlias(write, other)) return true;
    }
  }
  for (const MemoryAccess& read : a.memory_reads) {
    for (const MemoryAccess& other : b.memory_writes) {
      if (MayAlias(read, other)) return true;
    }
  }
  return false;
}

namespace {

bool Skipped(const std::vector<std::size_t>& skip, std::size_t pos) {
  return std::find(skip.begin(), skip.end(), pos) != skip.end();
}

/** True when `instruction` fully redefines canonical register `reg`
 * without reading it: a pure-write register operand of ≥32 bits (x86-64
 * zero-extends 32-bit writes; 8/16-bit writes merge into the old
 * value), an implicit write, or a full flags write. The caller has
 * already established that the instruction does not read `reg`. */
bool FullyKills(const Instruction& instruction,
                const InstructionSemantics& semantics, Register reg) {
  if (reg == assembly::FlagsRegister()) return WritesAllFlags(semantics);
  const std::vector<OperandUsage>& usage =
      *semantics.UsageForArity(instruction.operands.size());
  for (std::size_t i = 0; i < instruction.operands.size(); ++i) {
    const Operand& operand = instruction.operands[i];
    if (operand.kind() != OperandKind::kRegister) continue;
    if (usage[i] != OperandUsage::kWrite) continue;
    if (assembly::CanonicalRegister(operand.reg()) != reg) continue;
    if (assembly::GetRegisterInfo(operand.reg()).width_bits >= 32) {
      return true;
    }
  }
  if (assembly::ImplicitOperandsApply(semantics,
                                      instruction.operands.size())) {
    for (const Register implicit : semantics.implicit_writes) {
      if (assembly::CanonicalRegister(implicit) == reg) return true;
    }
  }
  return false;
}

}  // namespace

bool RegisterDeadAfter(const BasicBlock& block, std::size_t index,
                       Register reg, const std::vector<std::size_t>& skip) {
  const std::size_t n = block.size();
  GRANITE_CHECK(index < n);
  for (std::size_t step = 1; step < n; ++step) {
    const std::size_t pos = (index + step) % n;
    if (Skipped(skip, pos)) continue;
    const Instruction& instruction = block.instructions[pos];
    const DataFlow flow = assembly::DataFlowFor(instruction);
    if (flow.ReadsRegister(reg)) return false;
    if (flow.WritesRegister(reg) &&
        FullyKills(instruction, *flow.semantics, reg)) {
      return true;
    }
  }
  // The wrap-around scan came back to the definition site itself: the
  // next iteration's own definition is the first toucher, so no reader
  // ever sees this one.
  return true;
}

bool FlagsDeadAfter(const BasicBlock& block, std::size_t index,
                    const std::vector<std::size_t>& skip) {
  return RegisterDeadAfter(block, index, assembly::FlagsRegister(), skip);
}

namespace {

Instruction MakeInstruction(std::string mnemonic,
                            std::vector<Operand> operands) {
  Instruction instruction;
  instruction.mnemonic = std::move(mnemonic);
  instruction.operands = std::move(operands);
  return instruction;
}

/** The block with positions `remove` (sorted ascending) deleted and
 * `replacement` spliced in at the first removed position. */
BasicBlock Splice(const BasicBlock& block,
                  const std::vector<std::size_t>& remove,
                  const std::vector<Instruction>& replacement) {
  BasicBlock result;
  result.instructions.reserve(block.size() - remove.size() +
                              replacement.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (Skipped(remove, i)) {
      if (i == remove.front()) {
        result.instructions.insert(result.instructions.end(),
                                   replacement.begin(), replacement.end());
      }
      continue;
    }
    result.instructions.push_back(block.instructions[i]);
  }
  return result;
}

void Emit(std::vector<RewriteCandidate>& out, const BasicBlock& block,
          const std::vector<std::size_t>& remove,
          const std::vector<Instruction>& replacement) {
  RoundTripMemo& memo = RoundTripMemo::ForThisThread();
  for (const Instruction& instruction : replacement) {
    memo.Check(instruction);
  }
  out.push_back({Splice(block, remove, replacement)});
}

/** True when `instruction` is plain (no prefixes) with this mnemonic. */
bool IsPlain(const Instruction& instruction, std::string_view mnemonic) {
  return instruction.prefixes.empty() && instruction.mnemonic == mnemonic;
}

bool IsAluMnemonic(const Instruction& instruction) {
  return instruction.prefixes.empty() &&
         (instruction.mnemonic == "ADD" || instruction.mnemonic == "SUB" ||
          instruction.mnemonic == "AND" || instruction.mnemonic == "OR" ||
          instruction.mnemonic == "XOR");
}

bool IsUnaryAluMnemonic(const Instruction& instruction) {
  return instruction.prefixes.empty() &&
         (instruction.mnemonic == "INC" || instruction.mnemonic == "DEC" ||
          instruction.mnemonic == "NEG" || instruction.mnemonic == "NOT");
}

/** Canonical GP registers that appear nowhere in the block (not read,
 * written, or used as an address component) — safe scratch space. RSP
 * is never offered: redirecting the stack pointer is not a peephole. */
std::vector<Register> FreeScratchRegisters(const BasicBlock& block) {
  std::vector<DataFlow> flows;
  flows.reserve(block.size());
  for (const Instruction& instruction : block.instructions) {
    flows.push_back(assembly::DataFlowFor(instruction));
  }
  const auto used = [&flows](Register reg) {
    return std::any_of(flows.begin(), flows.end(), [reg](const DataFlow& f) {
      return f.ReadsRegister(reg) || f.WritesRegister(reg);
    });
  };
  std::vector<Register> free;
  const Register rsp = assembly::RegisterByName("RSP");
  const std::vector<Register>& all = assembly::CanonicalGpRegisters();
  // Walk high registers first (R15..R8 before the classic eight): the
  // generator's blocks favor the classic names, so high registers are
  // the likeliest to be genuinely free.
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (*it != rsp && !used(*it)) free.push_back(*it);
  }
  return free;
}

/** IMUL-by-constant → SHL (power of two) or LEA (2/3/4/5/8/9). The SHL
 * form keeps the flags definition; the LEA forms drop it and require
 * the flags to be provably dead. */
void EnumerateStrengthReduce(const BasicBlock& block,
                             std::vector<RewriteCandidate>& out) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Instruction& instruction = block.instructions[i];
    if (!IsPlain(instruction, "IMUL")) continue;
    Register dest = assembly::kInvalidRegister;
    Register source = assembly::kInvalidRegister;
    std::int64_t imm = 0;
    if (instruction.operands.size() == 2 &&
        instruction.operands[0].kind() == OperandKind::kRegister &&
        instruction.operands[1].kind() == OperandKind::kImmediate) {
      dest = source = instruction.operands[0].reg();
      imm = instruction.operands[1].imm();
    } else if (instruction.operands.size() == 3 &&
               instruction.operands[0].kind() == OperandKind::kRegister &&
               instruction.operands[1].kind() == OperandKind::kRegister &&
               instruction.operands[2].kind() == OperandKind::kImmediate) {
      dest = instruction.operands[0].reg();
      source = instruction.operands[1].reg();
      imm = instruction.operands[2].imm();
    } else {
      continue;
    }
    // SHL needs dest == source (it shifts in place) and keeps the
    // flags definition, so it is unconditionally legal.
    if (dest == source && imm > 1 && (imm & (imm - 1)) == 0) {
      int shift = 0;
      for (std::int64_t v = imm; v > 1; v >>= 1) ++shift;
      Emit(out, block, {i},
           {MakeInstruction("SHL", {Operand::Reg(dest), Operand::Imm(shift)})});
    }
    // LEA forms drop the flags write.
    const bool flags_dead = FlagsDeadAfter(block, i);
    if (!flags_dead) continue;
    if (imm == 3 || imm == 5 || imm == 9) {
      MemoryReference address;
      address.base = source;
      address.index = source;
      address.scale = static_cast<int>(imm - 1);
      Emit(out, block, {i},
           {MakeInstruction("LEA", {Operand::Reg(dest),
                                    Operand::Addr(address)})});
    } else if (imm == 2 || imm == 4 || imm == 8) {
      MemoryReference address;
      address.index = source;
      address.scale = static_cast<int>(imm);
      Emit(out, block, {i},
           {MakeInstruction("LEA", {Operand::Reg(dest),
                                    Operand::Addr(address)})});
    }
  }
}

/** The inverse direction: SHL-by-constant or a multiplying LEA spelled
 * as IMUL. The search explores it like any other candidate (the cost
 * model votes it down); DeoptimizeBlock leans on it to synthesize naive
 * corpora. */
void EnumerateStrengthRaise(const BasicBlock& block,
                            std::vector<RewriteCandidate>& out) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Instruction& instruction = block.instructions[i];
    if (IsPlain(instruction, "SHL") && instruction.operands.size() == 2 &&
        instruction.operands[0].kind() == OperandKind::kRegister &&
        instruction.operands[1].kind() == OperandKind::kImmediate) {
      const std::int64_t shift = instruction.operands[1].imm();
      if (shift < 1 || shift > 16) continue;
      const Register reg = instruction.operands[0].reg();
      // Both spell a full flags write: unconditionally legal.
      Emit(out, block, {i},
           {MakeInstruction("IMUL", {Operand::Reg(reg), Operand::Reg(reg),
                                     Operand::Imm(std::int64_t{1} << shift)})});
      continue;
    }
    if (IsPlain(instruction, "LEA") && instruction.operands.size() == 2 &&
        instruction.operands[0].kind() == OperandKind::kRegister &&
        instruction.operands[1].kind() == OperandKind::kAddress) {
      const MemoryReference& address = instruction.operands[1].mem();
      if (address.segment != assembly::kInvalidRegister ||
          address.displacement != 0 ||
          address.index == assembly::kInvalidRegister) {
        continue;
      }
      std::int64_t factor = 0;
      if (address.base == address.index) {
        factor = address.scale + 1;  // [s + k*s] = (k+1)*s
      } else if (address.base == assembly::kInvalidRegister) {
        factor = address.scale;  // [k*s] = k*s
      } else {
        continue;
      }
      if (factor < 2) continue;
      // IMUL adds a flags definition the LEA did not have.
      if (!FlagsDeadAfter(block, i)) continue;
      Emit(out, block, {i},
           {MakeInstruction("IMUL",
                            {Operand::Reg(instruction.operands[0].reg()),
                             Operand::Reg(address.index),
                             Operand::Imm(factor)})});
    }
  }
}

/** MOV r, 0 ↔ XOR r, r (plus SUB r, r → MOV r, 0). Either direction
 * changes the flags footprint (XOR/SUB define flags, MOV does not), so
 * both require the flags to be dead after the site. */
void EnumerateZeroIdiom(const BasicBlock& block,
                        std::vector<RewriteCandidate>& out) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Instruction& instruction = block.instructions[i];
    if (instruction.operands.size() != 2) continue;
    if (IsPlain(instruction, "MOV") &&
        instruction.operands[0].kind() == OperandKind::kRegister &&
        instruction.operands[1].kind() == OperandKind::kImmediate &&
        instruction.operands[1].imm() == 0) {
      if (!FlagsDeadAfter(block, i)) continue;
      const Operand reg = instruction.operands[0];
      Emit(out, block, {i}, {MakeInstruction("XOR", {reg, reg})});
      continue;
    }
    const bool is_xor = IsPlain(instruction, "XOR");
    const bool is_sub = IsPlain(instruction, "SUB");
    if ((is_xor || is_sub) &&
        instruction.operands[0].kind() == OperandKind::kRegister &&
        instruction.operands[1] == instruction.operands[0]) {
      if (!FlagsDeadAfter(block, i)) continue;
      Emit(out, block, {i},
           {MakeInstruction("MOV", {instruction.operands[0],
                                    Operand::Imm(0)})});
    }
  }
}

/** ADD/SUB x, 1 ↔ INC/DEC x (register or memory form). INC/DEC write
 * the flags only partially (CF is preserved) where ADD/SUB define all
 * of them, so both directions require dead flags. */
void EnumerateIncDec(const BasicBlock& block,
                     std::vector<RewriteCandidate>& out) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Instruction& instruction = block.instructions[i];
    const bool is_add = IsPlain(instruction, "ADD");
    const bool is_sub = IsPlain(instruction, "SUB");
    if ((is_add || is_sub) && instruction.operands.size() == 2 &&
        instruction.operands[1].kind() == OperandKind::kImmediate &&
        instruction.operands[1].imm() == 1 &&
        instruction.operands[0].kind() != OperandKind::kImmediate) {
      if (!FlagsDeadAfter(block, i)) continue;
      Emit(out, block, {i},
           {MakeInstruction(is_add ? "INC" : "DEC",
                            {instruction.operands[0]})});
      continue;
    }
    const bool is_inc = IsPlain(instruction, "INC");
    const bool is_dec = IsPlain(instruction, "DEC");
    if ((is_inc || is_dec) && instruction.operands.size() == 1) {
      if (!FlagsDeadAfter(block, i)) continue;
      Emit(out, block, {i},
           {MakeInstruction(is_inc ? "ADD" : "SUB",
                            {instruction.operands[0], Operand::Imm(1)})});
    }
  }
}

/** MOV t, [m]; OP t(, src); MOV [m], t → OP [m](, src) when the
 * temporary is provably dead and the addresses are identical. */
void EnumerateRmwFuse(const BasicBlock& block,
                      std::vector<RewriteCandidate>& out) {
  for (std::size_t i = 0; i + 2 < block.size(); ++i) {
    const Instruction& load = block.instructions[i];
    const Instruction& op = block.instructions[i + 1];
    const Instruction& store = block.instructions[i + 2];
    if (!IsPlain(load, "MOV") || load.operands.size() != 2 ||
        load.operands[0].kind() != OperandKind::kRegister ||
        load.operands[1].kind() != OperandKind::kMemory) {
      continue;
    }
    if (!IsPlain(store, "MOV") || store.operands.size() != 2 ||
        store.operands[0].kind() != OperandKind::kMemory ||
        store.operands[1].kind() != OperandKind::kRegister) {
      continue;
    }
    const Register temp = load.operands[0].reg();
    if (store.operands[1].reg() != temp) continue;
    if (store.operands[0].mem() != load.operands[1].mem() ||
        store.operands[0].width_bits() != load.operands[1].width_bits()) {
      continue;
    }
    // The temporary must not feed the address: fusing would then
    // compute the store address from the pre-load value.
    const Register temp_canonical = assembly::CanonicalRegister(temp);
    const MemoryReference& address = load.operands[1].mem();
    if ((address.base != assembly::kInvalidRegister &&
         assembly::CanonicalRegister(address.base) == temp_canonical) ||
        (address.index != assembly::kInvalidRegister &&
         assembly::CanonicalRegister(address.index) == temp_canonical)) {
      continue;
    }
    std::vector<Operand> fused_operands;
    if (IsAluMnemonic(op) && op.operands.size() == 2 &&
        op.operands[0].kind() == OperandKind::kRegister &&
        op.operands[0].reg() == temp &&
        (op.operands[1].kind() == OperandKind::kImmediate ||
         (op.operands[1].kind() == OperandKind::kRegister &&
          assembly::CanonicalRegister(op.operands[1].reg()) !=
              temp_canonical))) {
      fused_operands = {load.operands[1], op.operands[1]};
    } else if (IsUnaryAluMnemonic(op) && op.operands.size() == 1 &&
               op.operands[0].kind() == OperandKind::kRegister &&
               op.operands[0].reg() == temp) {
      fused_operands = {load.operands[1]};
    } else {
      continue;
    }
    if (!RegisterDeadAfter(block, i + 2, temp_canonical, {i, i + 1, i + 2})) {
      continue;
    }
    Emit(out, block, {i, i + 1, i + 2},
         {MakeInstruction(op.mnemonic, std::move(fused_operands))});
  }
}

/** OP [m](, src) → MOV t, [m]; OP t(, src); MOV [m], t through a
 * scratch register unused anywhere in the block. */
void EnumerateRmwSplit(const BasicBlock& block,
                       std::vector<RewriteCandidate>& out) {
  std::vector<Register> scratch;  // Computed lazily, once.
  bool scratch_ready = false;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Instruction& instruction = block.instructions[i];
    const bool binary =
        IsAluMnemonic(instruction) && instruction.operands.size() == 2 &&
        instruction.operands[0].kind() == OperandKind::kMemory &&
        (instruction.operands[1].kind() == OperandKind::kImmediate ||
         instruction.operands[1].kind() == OperandKind::kRegister);
    const bool unary = IsUnaryAluMnemonic(instruction) &&
                       instruction.operands.size() == 1 &&
                       instruction.operands[0].kind() == OperandKind::kMemory;
    if (!binary && !unary) continue;
    const Operand& memory = instruction.operands[0];
    const int width = memory.width_bits();
    if (width > 64) continue;
    if (!scratch_ready) {
      scratch = FreeScratchRegisters(block);
      scratch_ready = true;
    }
    if (scratch.empty()) continue;
    const Operand temp =
        Operand::Reg(assembly::SubRegister(scratch.front(), width));
    std::vector<Operand> op_operands{temp};
    if (binary) op_operands.push_back(instruction.operands[1]);
    Emit(out, block, {i},
         {MakeInstruction("MOV", {temp, memory}),
          MakeInstruction(instruction.mnemonic, std::move(op_operands)),
          MakeInstruction("MOV", {memory, temp})});
  }
}

/** Renames `from` to `to` in the base and index of a memory or address
 * operand; true when either changed. */
bool RenameAddressRegister(Operand& operand, Register from, Register to) {
  MemoryReference address = operand.mem();
  bool changed = false;
  if (address.base == from) {
    address.base = to;
    changed = true;
  }
  if (address.index == from) {
    address.index = to;
    changed = true;
  }
  if (changed) {
    operand = operand.kind() == OperandKind::kMemory
                  ? Operand::Mem(address, operand.width_bits())
                  : Operand::Addr(address);
  }
  return changed;
}

/** MOV t, x; <instr reading t> → <instr reading x> when the copy's
 * destination dies with that single use — adjacent-pair copy
 * propagation. */
void EnumerateCopyEliminate(const BasicBlock& block,
                            std::vector<RewriteCandidate>& out) {
  for (std::size_t i = 0; i + 1 < block.size(); ++i) {
    const Instruction& copy = block.instructions[i];
    if (!IsPlain(copy, "MOV") || copy.operands.size() != 2 ||
        copy.operands[0].kind() != OperandKind::kRegister ||
        copy.operands[1].kind() != OperandKind::kRegister) {
      continue;
    }
    const Register temp = copy.operands[0].reg();
    const Register source = copy.operands[1].reg();
    if (temp == source) continue;
    const Instruction& user = block.instructions[i + 1];
    if (!user.prefixes.empty()) continue;
    if (!assembly::IsSupportedInstruction(user)) continue;
    // Substitute pure-read occurrences of the exact register id; a
    // read-write or written occurrence would redirect the write.
    Instruction rewritten = user;
    const std::vector<OperandUsage>& usage = assembly::OperandUsageFor(user);
    bool substituted = false;
    bool blocked = false;
    for (std::size_t k = 0; k < rewritten.operands.size(); ++k) {
      Operand& operand = rewritten.operands[k];
      switch (operand.kind()) {
        case OperandKind::kRegister:
          if (operand.reg() == temp) {
            if (usage[k] != OperandUsage::kRead) {
              blocked = true;
            } else {
              operand = Operand::Reg(source);
              substituted = true;
            }
          } else if (assembly::CanonicalRegister(operand.reg()) ==
                     assembly::CanonicalRegister(temp)) {
            blocked = true;  // Partial alias of the copy: keep it.
          }
          break;
        case OperandKind::kMemory:
        case OperandKind::kAddress:
          if (RenameAddressRegister(operand, temp, source)) {
            substituted = true;
          }
          break;
        case OperandKind::kImmediate:
        case OperandKind::kFpImmediate:
          break;
      }
    }
    if (!substituted || blocked) continue;
    // Implicit uses of the temp (e.g. MUL's RAX) cannot be renamed.
    const DataFlow rewritten_flow = assembly::DataFlowFor(rewritten);
    if (rewritten_flow.ReadsRegister(assembly::CanonicalRegister(temp)) ||
        rewritten_flow.WritesRegister(assembly::CanonicalRegister(temp))) {
      continue;
    }
    if (!RegisterDeadAfter(block, i + 1,
                           assembly::CanonicalRegister(temp), {i})) {
      continue;
    }
    Emit(out, block, {i, i + 1}, {rewritten});
  }
}

/** The inverse: route one instruction's register read through a fresh
 * scratch copy — the redundant-copy shape naive codegen emits. */
void EnumerateCopyInsert(const BasicBlock& block,
                         std::vector<RewriteCandidate>& out) {
  std::vector<Register> scratch;
  bool scratch_ready = false;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Instruction& instruction = block.instructions[i];
    if (!instruction.prefixes.empty()) continue;
    const DataFlow flow = assembly::DataFlowFor(instruction);
    const std::vector<OperandUsage>& usage =
        *flow.semantics->UsageForArity(instruction.operands.size());
    // Collect the distinct pure-read register ids of this instruction
    // (explicit reads and address components).
    std::vector<Register> readable;
    for (std::size_t k = 0; k < instruction.operands.size(); ++k) {
      const Operand& operand = instruction.operands[k];
      if (operand.kind() == OperandKind::kRegister &&
          usage[k] == OperandUsage::kRead &&
          assembly::IsRegisterClass(
              operand.reg(), assembly::RegisterClass::kGeneralPurpose)) {
        if (std::find(readable.begin(), readable.end(), operand.reg()) ==
            readable.end()) {
          readable.push_back(operand.reg());
        }
      } else if (operand.kind() == OperandKind::kMemory ||
                 operand.kind() == OperandKind::kAddress) {
        for (const Register reg : {operand.mem().base, operand.mem().index}) {
          if (reg == assembly::kInvalidRegister) continue;
          if (!assembly::IsRegisterClass(
                  reg, assembly::RegisterClass::kGeneralPurpose)) {
            continue;
          }
          if (std::find(readable.begin(), readable.end(), reg) ==
              readable.end()) {
            readable.push_back(reg);
          }
        }
      }
    }
    if (readable.empty()) continue;
    for (const Register source : readable) {
      // Skip registers the instruction also writes: the copy would
      // capture the pre-write value only by accident of operand
      // ordering.
      if (flow.WritesRegister(assembly::CanonicalRegister(source))) {
        continue;
      }
      if (!scratch_ready) {
        scratch = FreeScratchRegisters(block);
        scratch_ready = true;
      }
      if (scratch.empty()) break;
      const int width = assembly::GetRegisterInfo(source).width_bits;
      const Register temp = assembly::SubRegister(scratch.front(), width);
      // Every occurrence of `source` is renamed, address components
      // included: the WritesRegister skip above means the instruction
      // only reads `source`, so each occurrence reads the copy's value.
      Instruction rewritten = instruction;
      for (Operand& operand : rewritten.operands) {
        if (operand.kind() == OperandKind::kRegister &&
            operand.reg() == source) {
          operand = Operand::Reg(temp);
        } else if (operand.kind() == OperandKind::kMemory ||
                   operand.kind() == OperandKind::kAddress) {
          RenameAddressRegister(operand, source, temp);
        }
      }
      Emit(out, block, {i},
           {MakeInstruction("MOV", {Operand::Reg(temp), Operand::Reg(source)}),
            rewritten});
    }
  }
}

/** Adjacent dependency-preserving swaps. */
void EnumerateReorder(const BasicBlock& block,
                      std::vector<RewriteCandidate>& out) {
  if (block.size() < 2) return;
  std::vector<DataFlow> flows;
  flows.reserve(block.size());
  for (const Instruction& instruction : block.instructions) {
    flows.push_back(assembly::DataFlowFor(instruction));
  }
  for (std::size_t i = 0; i + 1 < block.size(); ++i) {
    if (Conflicts(flows[i], flows[i + 1])) continue;
    BasicBlock swapped = block;
    std::swap(swapped.instructions[i], swapped.instructions[i + 1]);
    out.push_back({std::move(swapped)});
  }
}

}  // namespace

RoundTripMemo::RoundTripMemo() : slots_(kCapacity) {}

RoundTripMemo& RoundTripMemo::ForThisThread() {
  thread_local RoundTripMemo memo;
  return memo;
}

// The parser reads a block line by line, so a block whose instructions
// each pass this check round-trips as a whole.
void RoundTripMemo::Check(const Instruction& instruction) {
  text_.clear();
  instruction.AppendTo(text_);
  std::optional<Instruction>& slot =
      slots_[Fnv1a(kFnvOffsetBasis, text_) % kCapacity];
  if (slot.has_value() && *slot == instruction) return;
  const assembly::ParseResult<BasicBlock> reparsed =
      assembly::ParseBasicBlock(text_);
  GRANITE_CHECK_MSG(reparsed.ok() && reparsed.value->size() == 1 &&
                        reparsed.value->instructions.front() == instruction,
                    "transform emitted a non-round-tripping block");
  if (!slot.has_value()) ++size_;
  slot = instruction;
}

std::span<const Rule> TransformCatalog() {
  static constexpr Rule kCatalog[] = {
      {"strength-reduce", EnumerateStrengthReduce},
      {"strength-raise", EnumerateStrengthRaise},
      {"zero-idiom", EnumerateZeroIdiom},
      {"inc-dec", EnumerateIncDec},
      {"rmw-fuse", EnumerateRmwFuse},
      {"rmw-split", EnumerateRmwSplit},
      {"copy-eliminate", EnumerateCopyEliminate},
      {"copy-insert", EnumerateCopyInsert},
      {"reorder", EnumerateReorder},
  };
  return kCatalog;
}

std::vector<RewriteCandidate> EnumerateCandidates(const BasicBlock& block) {
  std::vector<RewriteCandidate> candidates;
  if (block.empty()) return candidates;
  for (const Instruction& instruction : block.instructions) {
    if (!assembly::IsSupportedInstruction(instruction)) return candidates;
  }
  for (const Rule& rule : TransformCatalog()) {
    const std::size_t first = candidates.size();
    rule.enumerate(block, candidates);
    for (std::size_t i = first; i < candidates.size(); ++i) {
      candidates[i].rule = rule.name;
    }
  }
  // Invariant: every candidate round-trips through the parser. A
  // violation is an emission bug in a rule, not a user error. A
  // candidate holds only the input's instructions and the replacements
  // Emit has already checked, so checking the input's instructions here
  // covers every candidate.
  if (!candidates.empty()) {
    RoundTripMemo& memo = RoundTripMemo::ForThisThread();
    for (const Instruction& instruction : block.instructions) {
      memo.Check(instruction);
    }
  }
  return candidates;
}

BasicBlock DeoptimizeBlock(const BasicBlock& block,
                           const uarch::ThroughputModel& oracle,
                           int max_rewrites) {
  BasicBlock current = block;
  double current_cost = oracle.CyclesPerIteration(current);
  for (int step = 0; step < max_rewrites; ++step) {
    const std::vector<RewriteCandidate> candidates =
        EnumerateCandidates(current);
    const RewriteCandidate* worst = nullptr;
    double worst_cost = current_cost;
    for (const RewriteCandidate& candidate : candidates) {
      const double cost = oracle.CyclesPerIteration(candidate.block);
      if (cost > worst_cost + 1e-9) {
        worst = &candidate;
        worst_cost = cost;
      }
    }
    if (worst == nullptr) break;
    current = worst->block;
    current_cost = worst_cost;
  }
  return current;
}

}  // namespace granite::autotune
