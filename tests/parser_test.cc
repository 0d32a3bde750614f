/**
 * @file
 * Tests of the Intel-syntax parser, including the example blocks printed
 * in the paper (Table 1 and Figure 1) and round-trip properties over the
 * synthetic block generator.
 */
#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "asm/registers.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "dataset/generator.h"

namespace granite::assembly {
namespace {

TEST(ParseOperandTest, Register) {
  const auto result = ParseOperand("EAX");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->kind(), OperandKind::kRegister);
  EXPECT_EQ(RegisterName(result.value->reg()), "EAX");
}

TEST(ParseOperandTest, RegisterCaseInsensitive) {
  const auto result = ParseOperand("r15d");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(RegisterName(result.value->reg()), "R15D");
}

TEST(ParseOperandTest, DecimalImmediate) {
  const auto result = ParseOperand("42");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->kind(), OperandKind::kImmediate);
  EXPECT_EQ(result.value->imm(), 42);
}

TEST(ParseOperandTest, NegativeImmediate) {
  const auto result = ParseOperand("-17");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->imm(), -17);
}

TEST(ParseOperandTest, HexImmediate) {
  const auto result = ParseOperand("0x8");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->imm(), 8);
}

TEST(ParseOperandTest, FpImmediate) {
  const auto result = ParseOperand("1.5");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->kind(), OperandKind::kFpImmediate);
  EXPECT_DOUBLE_EQ(result.value->fp_imm(), 1.5);
}

TEST(ParseOperandTest, SimpleMemory) {
  const auto result = ParseOperand("DWORD PTR [RAX]");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->kind(), OperandKind::kMemory);
  EXPECT_EQ(result.value->width_bits(), 32);
  EXPECT_EQ(RegisterName(result.value->mem().base), "RAX");
  EXPECT_EQ(result.value->mem().index, kInvalidRegister);
}

TEST(ParseOperandTest, FullAddressingMode) {
  const auto result = ParseOperand("QWORD PTR [RAX + 4*RBX - 8]");
  ASSERT_TRUE(result.ok()) << result.error;
  const MemoryReference& mem = result.value->mem();
  EXPECT_EQ(RegisterName(mem.base), "RAX");
  EXPECT_EQ(RegisterName(mem.index), "RBX");
  EXPECT_EQ(mem.scale, 4);
  EXPECT_EQ(mem.displacement, -8);
}

TEST(ParseOperandTest, ScaleBeforeRegister) {
  const auto result = ParseOperand("[8*RCX + 16]");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(RegisterName(result.value->mem().index), "RCX");
  EXPECT_EQ(result.value->mem().scale, 8);
  EXPECT_EQ(result.value->mem().displacement, 16);
}

TEST(ParseOperandTest, TwoPlainRegisters) {
  const auto result = ParseOperand("[RAX + RBX]");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(RegisterName(result.value->mem().base), "RAX");
  EXPECT_EQ(RegisterName(result.value->mem().index), "RBX");
  EXPECT_EQ(result.value->mem().scale, 1);
}

TEST(ParseOperandTest, SegmentOverride) {
  const auto result = ParseOperand("QWORD PTR FS:[0x28]");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(RegisterName(result.value->mem().segment), "FS");
  EXPECT_EQ(result.value->mem().displacement, 0x28);
  EXPECT_EQ(result.value->mem().base, kInvalidRegister);
}

TEST(ParseOperandTest, RipRelative) {
  const auto result = ParseOperand("QWORD PTR [RIP + 0x100]");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->mem().base, RegisterByName("RIP"));
}

TEST(ParseOperandTest, RejectsGarbage) {
  EXPECT_FALSE(ParseOperand("NOTAREG").ok());
  EXPECT_FALSE(ParseOperand("[RAX + NOTAREG]").ok());
  EXPECT_FALSE(ParseOperand("DWORD [RAX]").ok());  // Missing PTR.
  EXPECT_FALSE(ParseOperand("[3*RAX]").ok());      // Invalid scale.
  EXPECT_FALSE(ParseOperand("").ok());
}

TEST(ParseOperandTest, DisplacementSumsStayInRange) {
  const auto largest = ParseOperand("[RBX + 9223372036854775806 + 1]");
  ASSERT_TRUE(largest.ok()) << largest.error;
  EXPECT_EQ(largest.value->mem().displacement, INT64_MAX);
  const auto smallest = ParseOperand("[RBX - 9223372036854775806 - 1]");
  ASSERT_TRUE(smallest.ok()) << smallest.error;
  EXPECT_EQ(smallest.value->mem().displacement, -INT64_MAX);
  EXPECT_EQ(smallest.value->ToString(),
            "QWORD PTR [RBX - 9223372036854775807]");
}

TEST(ParseOperandTest, RejectsDisplacementOverflow) {
  const auto overflow = ParseOperand("[RBX + 9223372036854775807 + 1]");
  EXPECT_FALSE(overflow.ok());
  EXPECT_NE(overflow.error.find("displacement out of range"),
            std::string::npos)
      << overflow.error;
  EXPECT_FALSE(ParseOperand("[RBX - 9223372036854775807 - 2]").ok());
}

TEST(ParseOperandTest, RejectsInt64MinDisplacement) {
  // The sum is representable, but its magnitude is not an int64_t.
  const auto minimum = ParseOperand("[RBX - 9223372036854775807 - 1]");
  EXPECT_FALSE(minimum.ok());
  EXPECT_NE(minimum.error.find("displacement out of range"),
            std::string::npos)
      << minimum.error;
  EXPECT_FALSE(ParseOperand("[-9223372036854775807 - 1]").ok());
}

TEST(ParseOperandTest, RejectsNonFiniteFpImmediates) {
  for (const char* text : {"nan", "-nan", "inf", "-inf", "INFINITY",
                           "1e999", "nan.0", "inf.0"}) {
    const auto result = ParseOperand(text);
    EXPECT_FALSE(result.ok()) << text;
    if (std::string_view(text).find(".0") == std::string_view::npos) {
      EXPECT_NE(result.error.find("non-finite"), std::string::npos)
          << text << ": " << result.error;
    }
  }
  EXPECT_FALSE(ParseBasicBlock("MOV RAX, nan\nADD RBX, 0").ok());
}

TEST(ParseOperandTest, FpImmediateKeepsEveryDigit) {
  const auto result = ParseOperand("1.2345678");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->fp_imm(), 1.2345678);
  EXPECT_EQ(result.value->ToString(), "1.2345678");
}

TEST(ParseOperandTest, PtrWithoutSpaceBeforeBracket) {
  // llvm-mc/objdump Intel syntax legally omits the space after PTR.
  const auto tight = ParseOperand("QWORD PTR[RAX]");
  ASSERT_TRUE(tight.ok()) << tight.error;
  EXPECT_EQ(tight.value->kind(), OperandKind::kMemory);
  EXPECT_EQ(tight.value->width_bits(), 64);
  EXPECT_EQ(RegisterName(tight.value->mem().base), "RAX");

  const auto displaced = ParseOperand("DWORD PTR[RBP - 4]");
  ASSERT_TRUE(displaced.ok()) << displaced.error;
  EXPECT_EQ(displaced.value->width_bits(), 32);
  EXPECT_EQ(displaced.value->mem().displacement, -4);

  // Typos after PTR are still typos.
  EXPECT_FALSE(ParseOperand("QWORD PTRX [RAX]").ok());
  EXPECT_FALSE(ParseOperand("QWORD PTRFS:[0x28]").ok());
}

TEST(ParseInstructionTest, TwoOperands) {
  const auto result = ParseInstruction("SBB EAX, EAX");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->mnemonic, "SBB");
  ASSERT_EQ(result.value->operands.size(), 2u);
}

TEST(ParseInstructionTest, LockPrefix) {
  const auto result = ParseInstruction("LOCK ADD DWORD PTR [RAX], EBX");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->mnemonic, "ADD");
  ASSERT_EQ(result.value->prefixes.size(), 1u);
  EXPECT_EQ(result.value->prefixes[0], "LOCK");
}

TEST(ParseInstructionTest, LeaBecomesAddressOperand) {
  const auto result = ParseInstruction("LEA RAX, [RBX + 2*RCX + 4]");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.value->operands.size(), 2u);
  EXPECT_EQ(result.value->operands[1].kind(), OperandKind::kAddress);
}

TEST(ParseInstructionTest, NoOperands) {
  const auto result = ParseInstruction("CDQ");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.value->operands.empty());
}

TEST(ParseInstructionTest, LineLabelIsIgnored) {
  const auto result = ParseInstruction("4: MOV DWORD PTR [RBP - 3], EAX");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->mnemonic, "MOV");
}

TEST(ParseInstructionTest, HexAddressLabelIsIgnored) {
  // objdump listing lines carry hex instruction addresses as labels.
  const auto plain = ParseInstruction("40100a: mov rax, rbx");
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_EQ(plain.value->mnemonic, "MOV");

  const auto prefixed = ParseInstruction("0x40100a: add rax, 8");
  ASSERT_TRUE(prefixed.ok()) << prefixed.error;
  EXPECT_EQ(prefixed.value->mnemonic, "ADD");

  const auto letters = ParseInstruction("DEAD: INC RAX");
  ASSERT_TRUE(letters.ok()) << letters.error;
  EXPECT_EQ(letters.value->mnemonic, "INC");
}

TEST(ParseInstructionTest, SegmentOverrideColonIsNotALabel) {
  const auto result = ParseInstruction("MOV RAX, QWORD PTR FS:[0x28]");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->mnemonic, "MOV");
  ASSERT_EQ(result.value->operands.size(), 2u);
  EXPECT_EQ(RegisterName(result.value->operands[1].mem().segment), "FS");
  // A non-hex word before ':' is not an address label either.
  EXPECT_FALSE(ParseInstruction("LOOP: INC RAX").ok());
}

TEST(ParseInstructionTest, UnbalancedBracketsAreAnError) {
  // A stray ']' must produce a diagnostic instead of silently merging
  // text across the bracket into a bogus operand.
  const auto stray = ParseInstruction("MOV RAX, 0], [0");
  ASSERT_FALSE(stray.ok());
  EXPECT_NE(stray.error.find("unbalanced"), std::string::npos)
      << stray.error;
  const auto unclosed = ParseInstruction("ADD RAX, [RBX");
  ASSERT_FALSE(unclosed.ok());
  EXPECT_NE(unclosed.error.find("unbalanced"), std::string::npos)
      << unclosed.error;
}

TEST(ParseInstructionTest, RejectsPrefixWithoutMnemonic) {
  EXPECT_FALSE(ParseInstruction("LOCK").ok());
  EXPECT_FALSE(ParseInstruction("").ok());
}

// The example basic block of the paper's Table 1 (BHive dataset).
constexpr const char* kTable1Block = R"(
0: CMP R15D, 1
1: SBB EAX, EAX
2: AND EAX, 0x8
3: TEST ECX, ECX
4: MOV DWORD PTR [RBP - 3], EAX
5: MOV EAX, 1
6: CMOVG EAX, ECX
7: CMP EDX, EAX
)";

TEST(ParseBasicBlockTest, PaperTable1Block) {
  const auto result = ParseBasicBlock(kTable1Block);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.value->size(), 8u);
  EXPECT_EQ(result.value->instructions[0].mnemonic, "CMP");
  EXPECT_EQ(result.value->instructions[1].mnemonic, "SBB");
  EXPECT_EQ(result.value->instructions[6].mnemonic, "CMOVG");
  // Instruction 4 stores to [RBP - 3].
  const Operand& store = result.value->instructions[4].operands[0];
  EXPECT_EQ(store.kind(), OperandKind::kMemory);
  EXPECT_EQ(store.mem().displacement, -3);
}

// The example block of the paper's Figure 1.
constexpr const char* kFigure1Block =
    "MOV RAX, 12345\n"
    "ADD DWORD PTR [RAX + 16], EBX\n";

TEST(ParseBasicBlockTest, PaperFigure1Block) {
  const auto result = ParseBasicBlock(kFigure1Block);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.value->size(), 2u);
  EXPECT_EQ(result.value->instructions[0].operands[1].imm(), 12345);
  EXPECT_EQ(result.value->instructions[1].operands[0].mem().displacement,
            16);
}

TEST(ParseBasicBlockTest, CommentsAndBlankLinesSkipped) {
  const auto result = ParseBasicBlock(
      "# a comment\n\nMOV EAX, 1\n; another comment\nADD EAX, 2\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value->size(), 2u);
}

TEST(ParseBasicBlockTest, ReportsBadLine) {
  const auto result = ParseBasicBlock("MOV EAX, 1\nBOGUS FOO\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("BOGUS"), std::string::npos);
}

/** Property: printing and re-parsing a generated block is the identity
 * (5 seeds x 1,000 blocks). */
class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripTest, GeneratedBlocksRoundTrip) {
  dataset::GeneratorConfig config;
  dataset::BlockGenerator generator(config, GetParam());
  for (int i = 0; i < 1000; ++i) {
    const BasicBlock block = generator.Generate();
    const auto reparsed = ParseBasicBlock(block.ToString());
    ASSERT_TRUE(reparsed.ok())
        << reparsed.error << "\nblock:\n" << block.ToString();
    EXPECT_EQ(*reparsed.value, block) << block.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(1, 2, 3, 17, 99));

/** Golden digest over every accepted block and every error message for
 * a fixed input set: 2,000 generated blocks re-spelled in lower case with
 * tabs and indentation, plus the seeded byte-soup and mutation corpora of
 * parser_fuzz_test. Any change to what the parser accepts, to the block
 * it returns or to the wording of a diagnostic changes the digest. */
TEST(ParseBasicBlockTest, GoldenDigestOverRespelledAndMutatedBlocks) {
  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t accepted = 0;
  std::size_t total = 0;
  // Folds the ok flag, then the canonical text of an accepted block or
  // the exact error string, then a separator.
  const auto fold = [&](std::string_view text) {
    const ParseResult<BasicBlock> result = ParseBasicBlock(text);
    digest = Fnv1a(digest, result.ok() ? "1" : "0");
    digest = Fnv1a(digest, result.ok() ? result.value->ToString()
                                       : result.error);
    digest = Fnv1a(digest, std::string_view("\0", 1));
    accepted += result.ok() ? 1 : 0;
    ++total;
    return result.ok();
  };

  dataset::GeneratorConfig config;
  {
    dataset::BlockGenerator generator(config, 4242);
    Rng rng(4243);
    for (int i = 0; i < 2000; ++i) {
      const std::string canonical = generator.Generate().ToString();
      std::string variant;
      bool line_start = true;
      for (const char c : canonical) {
        if (line_start && rng.NextBounded(2) == 0) variant += '\t';
        line_start = c == '\n';
        if (c == ' ') {
          switch (rng.NextBounded(3)) {
            case 0: variant += ' '; break;
            case 1: variant += '\t'; break;
            default: variant += " \t"; break;
          }
        } else {
          variant += c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                          : c;
        }
      }
      EXPECT_TRUE(fold(variant)) << variant;
    }
  }
  constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,[]+-*:x.\t";
  for (const std::uint64_t seed : {101, 202, 303}) {
    Rng soup_rng(seed);
    for (int iteration = 0; iteration < 500; ++iteration) {
      const int length = static_cast<int>(soup_rng.NextBounded(40));
      std::string line;
      for (int i = 0; i < length; ++i) {
        line += kAlphabet[soup_rng.NextBounded(sizeof(kAlphabet) - 1)];
      }
      fold(line);
    }
    Rng rng(seed + 100);
    dataset::BlockGenerator generator(config, seed);
    for (int iteration = 0; iteration < 200; ++iteration) {
      std::string text = generator.Generate().ToString();
      const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
      for (int m = 0; m < mutations && !text.empty(); ++m) {
        const std::size_t position = rng.NextBounded(text.size());
        switch (rng.NextBounded(3)) {
          case 0:
            text[position] = static_cast<char>('A' + rng.NextBounded(26));
            break;
          case 1:
            text.erase(position, 1);
            break;
          default:
            text.insert(position, 1,
                        static_cast<char>('0' + rng.NextBounded(10)));
            break;
        }
      }
      fold(text);
    }
  }
  EXPECT_EQ(total, 4100u);
  EXPECT_EQ(accepted, 2954u);
  EXPECT_EQ(digest, 12898162971634684698ull);
}

}  // namespace
}  // namespace granite::assembly
