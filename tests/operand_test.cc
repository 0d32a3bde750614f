/**
 * @file
 * Tests of the operand model and its Intel-syntax rendering.
 */
#include "gtest/gtest.h"
#include "asm/instruction.h"
#include "asm/operand.h"
#include "asm/registers.h"

namespace granite::assembly {
namespace {

TEST(OperandTest, RegisterOperand) {
  const Operand operand = Operand::Reg(RegisterByName("EBX"));
  EXPECT_EQ(operand.kind(), OperandKind::kRegister);
  EXPECT_EQ(operand.ToString(), "EBX");
}

TEST(OperandTest, ImmediateOperand) {
  EXPECT_EQ(Operand::Imm(42).ToString(), "42");
  EXPECT_EQ(Operand::Imm(-8).ToString(), "-8");
}

TEST(OperandTest, FpImmediateAlwaysLooksFloat) {
  EXPECT_EQ(Operand::FpImm(1.5).ToString(), "1.5");
  EXPECT_EQ(Operand::FpImm(2.0).ToString(), "2.0");
}

TEST(OperandTest, MemoryOperandRendering) {
  MemoryReference reference;
  reference.base = RegisterByName("RAX");
  reference.index = RegisterByName("RBX");
  reference.scale = 4;
  reference.displacement = -8;
  const Operand operand = Operand::Mem(reference, 32);
  EXPECT_EQ(operand.ToString(), "DWORD PTR [RAX + 4*RBX - 8]");
  EXPECT_EQ(operand.width_bits(), 32);
}

TEST(OperandTest, MemoryScaleOneOmitted) {
  MemoryReference reference;
  reference.base = RegisterByName("RCX");
  reference.index = RegisterByName("RDX");
  EXPECT_EQ(Operand::Mem(reference, 64).ToString(),
            "QWORD PTR [RCX + RDX]");
}

TEST(OperandTest, MemorySegmentOverride) {
  MemoryReference reference;
  reference.segment = RegisterByName("FS");
  reference.displacement = 0x28;
  EXPECT_EQ(Operand::Mem(reference, 64).ToString(),
            "QWORD PTR FS:[40]");
}

TEST(OperandTest, PureDisplacement) {
  MemoryReference reference;
  reference.displacement = 100;
  EXPECT_EQ(Operand::Mem(reference, 8).ToString(), "BYTE PTR [100]");
}

TEST(OperandTest, AddressOperandHasNoWidthKeyword) {
  MemoryReference reference;
  reference.base = RegisterByName("RSI");
  reference.displacement = 4;
  EXPECT_EQ(Operand::Addr(reference).ToString(), "[RSI + 4]");
}

TEST(OperandTest, MemoryReferenceValidity) {
  MemoryReference empty;
  EXPECT_FALSE(empty.IsValid());
  MemoryReference with_base;
  with_base.base = RegisterByName("RAX");
  EXPECT_TRUE(with_base.IsValid());
  MemoryReference with_disp;
  with_disp.displacement = 1;
  EXPECT_TRUE(with_disp.IsValid());
}

TEST(InstructionTest, ToStringWithPrefixAndOperands) {
  Instruction instruction;
  instruction.mnemonic = "ADD";
  instruction.prefixes = {"LOCK"};
  MemoryReference reference;
  reference.base = RegisterByName("RAX");
  instruction.operands = {Operand::Mem(reference, 32),
                          Operand::Reg(RegisterByName("EBX"))};
  EXPECT_EQ(instruction.ToString(), "LOCK ADD DWORD PTR [RAX], EBX");
  EXPECT_TRUE(instruction.HasPrefix("LOCK"));
  EXPECT_FALSE(instruction.HasPrefix("REP"));
}

TEST(InstructionTest, HasRepPrefixCoversTheRepFamilyOnly) {
  Instruction instruction;
  instruction.mnemonic = "STOSB";
  EXPECT_FALSE(instruction.HasRepPrefix());
  instruction.prefixes = {"LOCK"};
  EXPECT_FALSE(instruction.HasRepPrefix());
  instruction.prefixes = {"REPX"};
  EXPECT_FALSE(instruction.HasRepPrefix());
  for (const char* prefix : {"REP", "REPE", "REPZ", "REPNE", "REPNZ"}) {
    instruction.prefixes = {"LOCK", prefix};
    EXPECT_TRUE(instruction.HasRepPrefix()) << prefix;
  }
}

TEST(BasicBlockTest, MultiLineToString) {
  BasicBlock block;
  Instruction mov;
  mov.mnemonic = "MOV";
  mov.operands = {Operand::Reg(RegisterByName("RAX")),
                  Operand::Imm(12345)};
  Instruction cdq;
  cdq.mnemonic = "CDQ";
  block.instructions = {mov, cdq};
  EXPECT_EQ(block.ToString(), "MOV RAX, 12345\nCDQ");
  EXPECT_EQ(block.size(), 2u);
  EXPECT_FALSE(block.empty());
}

}  // namespace
}  // namespace granite::assembly
