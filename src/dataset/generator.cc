#include "dataset/generator.h"

#include <algorithm>

#include "asm/semantics.h"
#include "base/logging.h"

namespace granite::dataset {
namespace {

using assembly::BasicBlock;
using assembly::Instruction;
using assembly::MemoryReference;
using assembly::Operand;
using assembly::Register;

/** Builds a two-operand instruction. */
Instruction Make(const std::string& mnemonic, Operand a, Operand b) {
  Instruction instruction;
  instruction.mnemonic = mnemonic;
  instruction.operands = {std::move(a), std::move(b)};
  return instruction;
}

Instruction Make(const std::string& mnemonic, Operand a) {
  Instruction instruction;
  instruction.mnemonic = mnemonic;
  instruction.operands = {std::move(a)};
  return instruction;
}

}  // namespace

BlockGenerator::BlockGenerator(const GeneratorConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {
  GRANITE_CHECK_GE(config.min_instructions, 1);
  GRANITE_CHECK_GE(config.max_instructions, config.min_instructions);
  GRANITE_CHECK_EQ(config.family_weights.size(),
                   static_cast<std::size_t>(kNumWorkloadFamilies));
}

BlockGenerator::BlockGenerator(const GeneratorConfig& config, const Rng& rng)
    : config_(config), rng_(rng) {
  GRANITE_CHECK_GE(config.min_instructions, 1);
  GRANITE_CHECK_GE(config.max_instructions, config.min_instructions);
  GRANITE_CHECK_EQ(config.family_weights.size(),
                   static_cast<std::size_t>(kNumWorkloadFamilies));
}

int BlockGenerator::SampleLength() {
  // Mildly skewed toward short blocks, like the BHive distribution where
  // the median block is a handful of instructions.
  const int span = config_.max_instructions - config_.min_instructions + 1;
  const double u = rng_.NextDouble();
  const int offset = static_cast<int>(u * u * span);
  return config_.min_instructions + std::min(offset, span - 1);
}

Register BlockGenerator::SampleGpRegister(int width_bits) {
  const std::vector<Register>& pool = assembly::CanonicalGpRegisters();
  while (true) {
    const Register canonical = pool[rng_.NextBounded(pool.size())];
    // RSP is reserved for the stack engine; generated arithmetic never
    // touches it so that PUSH/POP remain meaningful.
    if (assembly::RegisterName(canonical) == "RSP") continue;
    return assembly::SubRegister(canonical, width_bits);
  }
}

Register BlockGenerator::SampleVectorRegister() {
  const std::vector<Register>& pool = assembly::CanonicalVectorRegisters();
  return pool[rng_.NextBounded(pool.size())];
}

MemoryReference BlockGenerator::SampleMemoryReference() {
  MemoryReference reference;
  reference.base = SampleGpRegister(64);
  if (rng_.NextBernoulli(0.35)) {
    reference.index = SampleGpRegister(64);
    static constexpr int kScales[] = {1, 2, 4, 8};
    reference.scale = kScales[rng_.NextBounded(4)];
  }
  if (rng_.NextBernoulli(0.6)) {
    reference.displacement = rng_.NextInt(-256, 256);
  }
  return reference;
}

Instruction BlockGenerator::SampleAluInstruction(int width_bits) {
  static const char* kMnemonics[] = {"ADD", "SUB", "AND", "OR",  "XOR",
                                     "CMP", "TEST"};
  const std::string mnemonic = kMnemonics[rng_.NextBounded(7)];
  const Operand destination = Operand::Reg(SampleGpRegister(width_bits));
  Operand source = Operand::Reg(SampleGpRegister(width_bits));
  if (rng_.NextBernoulli(config_.immediate_fraction)) {
    source = Operand::Imm(rng_.NextInt(0, 1 << 12));
  } else if (rng_.NextBernoulli(config_.memory_operand_fraction)) {
    source = Operand::Mem(SampleMemoryReference(), width_bits);
  }
  Instruction instruction = Make(mnemonic, destination, source);
  // Occasionally flip to a memory destination (read-modify-write), which
  // is the LOCK-eligible shape.
  if (mnemonic != "CMP" && mnemonic != "TEST" &&
      source.kind() == assembly::OperandKind::kRegister &&
      rng_.NextBernoulli(config_.memory_operand_fraction)) {
    instruction.operands[0] =
        Operand::Mem(SampleMemoryReference(), width_bits);
    if (rng_.NextBernoulli(config_.lock_fraction)) {
      instruction.prefixes.push_back("LOCK");
    }
  }
  return instruction;
}

BasicBlock BlockGenerator::GenerateDependencyChain(int length) {
  BasicBlock block;
  const int width = rng_.NextBernoulli(0.5) ? 64 : 32;
  // One or two interleaved accumulator chains through a fixed register.
  const Register accumulator = SampleGpRegister(width);
  const Register second = SampleGpRegister(width);
  for (int i = 0; i < length; ++i) {
    const Register target =
        (rng_.NextBernoulli(0.25)) ? second : accumulator;
    const int choice = static_cast<int>(rng_.NextBounded(5));
    switch (choice) {
      case 0:
        block.instructions.push_back(
            Make("ADD", Operand::Reg(target),
                 Operand::Imm(rng_.NextInt(1, 255))));
        break;
      case 1:
        block.instructions.push_back(
            Make("IMUL", Operand::Reg(target), Operand::Reg(target)));
        break;
      case 2:
        block.instructions.push_back(
            Make("XOR", Operand::Reg(target),
                 Operand::Reg(SampleGpRegister(width))));
        break;
      case 3:
        block.instructions.push_back(Make("ADC", Operand::Reg(target),
                                          Operand::Reg(accumulator)));
        break;
      default:
        block.instructions.push_back(
            Make("SHL", Operand::Reg(target), Operand::Imm(1)));
        break;
    }
  }
  return block;
}

BasicBlock BlockGenerator::GenerateParallel(int length) {
  BasicBlock block;
  const int width = rng_.NextBernoulli(0.5) ? 64 : 32;
  for (int i = 0; i < length; ++i) {
    // Independent targets: walk distinct registers round-robin.
    block.instructions.push_back(SampleAluInstruction(width));
  }
  return block;
}

BasicBlock BlockGenerator::GenerateMemoryHeavy(int length) {
  BasicBlock block;
  for (int i = 0; i < length; ++i) {
    const int width = rng_.NextBernoulli(0.5) ? 64 : 32;
    const int choice = static_cast<int>(rng_.NextBounded(4));
    switch (choice) {
      case 0:  // load
        block.instructions.push_back(
            Make("MOV", Operand::Reg(SampleGpRegister(width)),
                 Operand::Mem(SampleMemoryReference(), width)));
        break;
      case 1:  // store
        block.instructions.push_back(
            Make("MOV", Operand::Mem(SampleMemoryReference(), width),
                 Operand::Reg(SampleGpRegister(width))));
        break;
      case 2:  // store of an immediate
        block.instructions.push_back(
            Make("MOV", Operand::Mem(SampleMemoryReference(), width),
                 Operand::Imm(rng_.NextInt(0, 1 << 16))));
        break;
      default:  // read-modify-write ALU
        block.instructions.push_back(
            Make("ADD", Operand::Mem(SampleMemoryReference(), width),
                 Operand::Reg(SampleGpRegister(width))));
        break;
    }
  }
  return block;
}

BasicBlock BlockGenerator::GenerateFloatingPoint(int length) {
  BasicBlock block;
  const bool packed = rng_.NextBernoulli(0.3);
  const Register accumulator = SampleVectorRegister();
  for (int i = 0; i < length; ++i) {
    const bool chained = rng_.NextBernoulli(0.5);
    const Register destination =
        chained ? accumulator : SampleVectorRegister();
    const Register source = SampleVectorRegister();
    const int choice = static_cast<int>(rng_.NextBounded(6));
    const char* mnemonic = nullptr;
    switch (choice) {
      case 0: mnemonic = packed ? "ADDPD" : "ADDSD"; break;
      case 1: mnemonic = packed ? "MULPD" : "MULSD"; break;
      case 2: mnemonic = packed ? "SUBPD" : "SUBSD"; break;
      case 3: mnemonic = packed ? "DIVPD" : "DIVSD"; break;
      case 4: mnemonic = packed ? "MOVAPD" : "MOVSD"; break;
      default: mnemonic = "PXOR"; break;
    }
    if (std::string_view(mnemonic) == "MOVSD" && rng_.NextBernoulli(0.5)) {
      // Mix in loads of FP values from memory.
      block.instructions.push_back(
          Make(mnemonic, Operand::Reg(destination),
               Operand::Mem(SampleMemoryReference(), 64)));
    } else {
      block.instructions.push_back(
          Make(mnemonic, Operand::Reg(destination), Operand::Reg(source)));
    }
  }
  return block;
}

BasicBlock BlockGenerator::GenerateAddressArithmetic(int length) {
  BasicBlock block;
  for (int i = 0; i < length; ++i) {
    const int choice = static_cast<int>(rng_.NextBounded(3));
    switch (choice) {
      case 0:
        block.instructions.push_back(
            Make("LEA", Operand::Reg(SampleGpRegister(64)),
                 Operand::Addr(SampleMemoryReference())));
        break;
      case 1:
        block.instructions.push_back(
            Make("MOVZX", Operand::Reg(SampleGpRegister(32)),
                 Operand::Reg(SampleGpRegister(8))));
        break;
      default:
        block.instructions.push_back(
            Make("SHL", Operand::Reg(SampleGpRegister(64)),
                 Operand::Imm(rng_.NextInt(1, 4))));
        break;
    }
  }
  return block;
}

BasicBlock BlockGenerator::GenerateMixed(int length) {
  BasicBlock block;
  for (int i = 0; i < length; ++i) {
    const int choice = static_cast<int>(rng_.NextBounded(12));
    const int width = rng_.NextBernoulli(0.5) ? 64 : 32;
    switch (choice) {
      case 0:
      case 1:
      case 2:
        block.instructions.push_back(SampleAluInstruction(width));
        break;
      case 3:
        block.instructions.push_back(
            Make("MOV", Operand::Reg(SampleGpRegister(width)),
                 Operand::Imm(rng_.NextInt(0, 1 << 20))));
        break;
      case 4:
        block.instructions.push_back(
            Make("MOV", Operand::Reg(SampleGpRegister(width)),
                 Operand::Mem(SampleMemoryReference(), width)));
        break;
      case 5:
        block.instructions.push_back(
            Make("LEA", Operand::Reg(SampleGpRegister(64)),
                 Operand::Addr(SampleMemoryReference())));
        break;
      case 6: {
        // CMP + CMOVcc idiom (needs a preceding flag producer to be
        // realistic; CMP is emitted first).
        block.instructions.push_back(
            Make("CMP", Operand::Reg(SampleGpRegister(width)),
                 Operand::Imm(rng_.NextInt(0, 64))));
        static const char* kCmov[] = {"CMOVE", "CMOVNE", "CMOVG", "CMOVL"};
        block.instructions.push_back(
            Make(kCmov[rng_.NextBounded(4)],
                 Operand::Reg(SampleGpRegister(width)),
                 Operand::Reg(SampleGpRegister(width))));
        ++i;  // Two instructions emitted.
        break;
      }
      case 7:
        block.instructions.push_back(
            Make("IMUL", Operand::Reg(SampleGpRegister(width)),
                 Operand::Reg(SampleGpRegister(width))));
        break;
      case 8:
        block.instructions.push_back(
            Make(rng_.NextBernoulli(0.5) ? "POPCNT" : "TZCNT",
                 Operand::Reg(SampleGpRegister(width)),
                 Operand::Reg(SampleGpRegister(width))));
        break;
      case 9:
        block.instructions.push_back(
            Make("MOVZX", Operand::Reg(SampleGpRegister(32)),
                 Operand::Reg(SampleGpRegister(8))));
        break;
      case 10:
        if (rng_.NextBernoulli(0.2)) {
          Instruction div = Make("DIV", Operand::Reg(SampleGpRegister(width)));
          block.instructions.push_back(std::move(div));
        } else {
          block.instructions.push_back(
              Make("SUB", Operand::Reg(SampleGpRegister(width)),
                   Operand::Reg(SampleGpRegister(width))));
        }
        break;
      default:
        block.instructions.push_back(
            Make(rng_.NextBernoulli(0.5) ? "PUSH" : "POP",
                 Operand::Reg(SampleGpRegister(64))));
        break;
    }
  }
  // The loop may have overshot by one on the two-instruction idiom.
  if (static_cast<int>(block.instructions.size()) > length) {
    block.instructions.resize(length);
  }
  return block;
}

assembly::BasicBlock BlockGenerator::GenerateFromFamily(
    WorkloadFamily family) {
  const int length = SampleLength();
  switch (family) {
    case WorkloadFamily::kDependencyChain:
      return GenerateDependencyChain(length);
    case WorkloadFamily::kParallel:
      return GenerateParallel(length);
    case WorkloadFamily::kMemoryHeavy:
      return GenerateMemoryHeavy(length);
    case WorkloadFamily::kFloatingPoint:
      return GenerateFloatingPoint(length);
    case WorkloadFamily::kAddressArithmetic:
      return GenerateAddressArithmetic(length);
    case WorkloadFamily::kMixed:
      return GenerateMixed(length);
  }
  GRANITE_PANIC("unknown workload family");
}

assembly::BasicBlock BlockGenerator::Generate() {
  const std::size_t family = rng_.NextWeighted(config_.family_weights);
  return GenerateFromFamily(static_cast<WorkloadFamily>(family));
}

std::vector<assembly::BasicBlock> BlockGenerator::GenerateMany(
    std::size_t count) {
  std::vector<assembly::BasicBlock> blocks;
  blocks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) blocks.push_back(Generate());
  return blocks;
}

}  // namespace granite::dataset
