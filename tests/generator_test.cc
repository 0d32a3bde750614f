/**
 * @file
 * Tests of the synthetic block generator.
 */
#include <set>

#include "gtest/gtest.h"
#include "asm/semantics.h"
#include "dataset/generator.h"

namespace granite::dataset {
namespace {

TEST(GeneratorTest, DeterministicFromSeed) {
  GeneratorConfig config;
  BlockGenerator a(config, 42);
  BlockGenerator b(config, 42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Generate().ToString(), b.Generate().ToString());
  }
}

TEST(GeneratorTest, AllInstructionsSupportedByCatalog) {
  GeneratorConfig config;
  BlockGenerator generator(config, 7);
  for (int i = 0; i < 200; ++i) {
    const assembly::BasicBlock block = generator.Generate();
    for (const assembly::Instruction& instruction : block.instructions) {
      EXPECT_TRUE(assembly::IsSupportedInstruction(instruction))
          << instruction.ToString();
    }
  }
}

TEST(GeneratorTest, RespectsLengthBounds) {
  GeneratorConfig config;
  config.min_instructions = 3;
  config.max_instructions = 5;
  BlockGenerator generator(config, 11);
  for (int i = 0; i < 100; ++i) {
    const std::size_t size = generator.Generate().size();
    EXPECT_GE(size, 3u);
    EXPECT_LE(size, 5u);
  }
}

TEST(GeneratorTest, ProducesVariedBlocks) {
  GeneratorConfig config;
  BlockGenerator generator(config, 13);
  std::set<std::string> distinct;
  for (int i = 0; i < 100; ++i) distinct.insert(generator.Generate().ToString());
  EXPECT_GT(distinct.size(), 90u);
}

TEST(GeneratorTest, FamilySelectionIsExhaustive) {
  GeneratorConfig config;
  BlockGenerator generator(config, 17);
  for (int f = 0; f < kNumWorkloadFamilies; ++f) {
    const auto family = static_cast<WorkloadFamily>(f);
    const assembly::BasicBlock block = generator.GenerateFromFamily(family);
    EXPECT_FALSE(block.empty()) << "family " << f;
  }
}

TEST(GeneratorTest, DependencyChainsReuseAccumulator) {
  GeneratorConfig config;
  config.min_instructions = 6;
  config.max_instructions = 6;
  BlockGenerator generator(config, 19);
  // In a chain block, some register is written by several instructions.
  int blocks_with_reuse = 0;
  for (int i = 0; i < 20; ++i) {
    const assembly::BasicBlock block =
        generator.GenerateFromFamily(WorkloadFamily::kDependencyChain);
    std::map<std::string, int> write_counts;
    for (const assembly::Instruction& instruction : block.instructions) {
      if (!instruction.operands.empty() &&
          instruction.operands[0].kind() ==
              assembly::OperandKind::kRegister) {
        const assembly::Register canonical = assembly::CanonicalRegister(
            instruction.operands[0].reg());
        ++write_counts[assembly::RegisterName(canonical)];
      }
    }
    for (const auto& [reg, count] : write_counts) {
      (void)reg;
      if (count >= 3) {
        ++blocks_with_reuse;
        break;
      }
    }
  }
  EXPECT_GE(blocks_with_reuse, 15);
}

TEST(GeneratorTest, MemoryHeavyFamilyTouchesMemory) {
  GeneratorConfig config;
  BlockGenerator generator(config, 23);
  for (int i = 0; i < 10; ++i) {
    const assembly::BasicBlock block =
        generator.GenerateFromFamily(WorkloadFamily::kMemoryHeavy);
    bool touches_memory = false;
    for (const assembly::Instruction& instruction : block.instructions) {
      for (const assembly::Operand& operand : instruction.operands) {
        if (operand.kind() == assembly::OperandKind::kMemory) {
          touches_memory = true;
        }
      }
    }
    EXPECT_TRUE(touches_memory);
  }
}

TEST(GeneratorTest, FloatingPointFamilyUsesVectorRegisters) {
  GeneratorConfig config;
  BlockGenerator generator(config, 29);
  const assembly::BasicBlock block =
      generator.GenerateFromFamily(WorkloadFamily::kFloatingPoint);
  bool uses_vector = false;
  for (const assembly::Instruction& instruction : block.instructions) {
    for (const assembly::Operand& operand : instruction.operands) {
      if (operand.kind() == assembly::OperandKind::kRegister &&
          assembly::IsRegisterClass(operand.reg(),
                                    assembly::RegisterClass::kVector)) {
        uses_vector = true;
      }
    }
  }
  EXPECT_TRUE(uses_vector);
}

TEST(GeneratorTest, NeverWritesRsp) {
  // RSP is reserved: arithmetic must not clobber the stack pointer.
  GeneratorConfig config;
  BlockGenerator generator(config, 31);
  const assembly::Register rsp = assembly::RegisterByName("RSP");
  for (int i = 0; i < 100; ++i) {
    const assembly::BasicBlock block = generator.Generate();
    for (const assembly::Instruction& instruction : block.instructions) {
      for (const assembly::Operand& operand : instruction.operands) {
        if (operand.kind() == assembly::OperandKind::kRegister) {
          EXPECT_NE(assembly::CanonicalRegister(operand.reg()), rsp)
              << instruction.ToString();
        }
      }
    }
  }
}

TEST(GeneratorTest, FamilyWeightsControlMix) {
  GeneratorConfig config;
  config.family_weights = {0, 0, 1, 0, 0, 0};  // memory-heavy only
  BlockGenerator generator(config, 37);
  for (int i = 0; i < 10; ++i) {
    const assembly::BasicBlock block = generator.Generate();
    bool touches_memory = false;
    for (const assembly::Instruction& instruction : block.instructions) {
      for (const assembly::Operand& operand : instruction.operands) {
        if (operand.kind() == assembly::OperandKind::kMemory) {
          touches_memory = true;
        }
      }
    }
    EXPECT_TRUE(touches_memory);
  }
}

TEST(GeneratorTest, GenerateManyCount) {
  GeneratorConfig config;
  BlockGenerator generator(config, 41);
  EXPECT_EQ(generator.GenerateMany(25).size(), 25u);
}

}  // namespace
}  // namespace granite::dataset
