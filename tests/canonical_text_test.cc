/**
 * @file
 * Pins the canonical block text: the bytes BasicBlock::AppendTo prints.
 *
 * Shard routes, prediction-cache keys, measurement-noise seeds and
 * corpus records all depend on these bytes, so the goldens below are
 * literal: golden strings for every operand form, and BlockFingerprint
 * constants. A change to any of them moves every stored fingerprint,
 * label and corpus file, and must be made on purpose.
 */
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "asm/instruction.h"
#include "asm/parser.h"
#include "base/rng.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "uarch/measurement.h"

namespace granite::assembly {
namespace {

Register Reg(const char* name) { return *LookupRegister(name); }

BasicBlock Parse(std::string_view text) {
  const ParseResult<BasicBlock> result = ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return result.ok() ? *result.value : BasicBlock{};
}

TEST(CanonicalTextTest, MemoryForms) {
  MemoryReference reference;
  reference.base = Reg("RAX");
  EXPECT_EQ(reference.ToString(), "[RAX]");  // Zero displacement omitted.
  reference.displacement = -8;
  EXPECT_EQ(reference.ToString(), "[RAX - 8]");
  reference.displacement = 16;
  reference.index = Reg("RBX");
  reference.scale = 4;
  EXPECT_EQ(reference.ToString(), "[RAX + 4*RBX + 16]");
  reference.scale = 1;
  EXPECT_EQ(reference.ToString(), "[RAX + RBX + 16]");
  reference.segment = Reg("FS");
  EXPECT_EQ(reference.ToString(), "FS:[RAX + RBX + 16]");

  MemoryReference index_only;
  index_only.index = Reg("RCX");
  index_only.scale = 8;
  index_only.displacement = -24;
  EXPECT_EQ(index_only.ToString(), "[8*RCX - 24]");

  MemoryReference absolute;
  EXPECT_EQ(absolute.ToString(), "[0]");
  absolute.displacement = -8;
  EXPECT_EQ(absolute.ToString(), "[-8]");
  absolute.segment = Reg("GS");
  absolute.displacement = 40;
  EXPECT_EQ(absolute.ToString(), "GS:[40]");
}

TEST(CanonicalTextTest, ExtremeDisplacementsNeverNegateASignedValue) {
  MemoryReference reference;
  reference.base = Reg("RBX");
  reference.displacement = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(reference.ToString(), "[RBX + 9223372036854775807]");
  reference.displacement = -std::numeric_limits<int64_t>::max();
  EXPECT_EQ(reference.ToString(), "[RBX - 9223372036854775807]");
  // Not producible by the parser; printed as its magnitude, not "- -".
  reference.displacement = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(reference.ToString(), "[RBX - 9223372036854775808]");
}

TEST(CanonicalTextTest, OperandForms) {
  MemoryReference reference;
  reference.base = Reg("RSI");
  reference.displacement = 32;
  EXPECT_EQ(Operand::Reg(Reg("YMM0")).ToString(), "YMM0");
  EXPECT_EQ(Operand::Imm(0).ToString(), "0");
  EXPECT_EQ(Operand::Imm(-2147483648).ToString(), "-2147483648");
  EXPECT_EQ(Operand::Imm(std::numeric_limits<int64_t>::min()).ToString(),
            "-9223372036854775808");
  EXPECT_EQ(Operand::Mem(reference, 8).ToString(), "BYTE PTR [RSI + 32]");
  EXPECT_EQ(Operand::Mem(reference, 16).ToString(), "WORD PTR [RSI + 32]");
  EXPECT_EQ(Operand::Mem(reference, 32).ToString(), "DWORD PTR [RSI + 32]");
  EXPECT_EQ(Operand::Mem(reference, 64).ToString(), "QWORD PTR [RSI + 32]");
  EXPECT_EQ(Operand::Mem(reference, 128).ToString(),
            "XMMWORD PTR [RSI + 32]");
  EXPECT_EQ(Operand::Mem(reference, 256).ToString(),
            "YMMWORD PTR [RSI + 32]");
  EXPECT_EQ(Operand::Addr(reference).ToString(), "[RSI + 32]");
}

TEST(CanonicalTextTest, FpImmediatesKeepPercentGTextWhenLossless) {
  EXPECT_EQ(Operand::FpImm(-0.25).ToString(), "-0.25");
  EXPECT_EQ(Operand::FpImm(-0.0).ToString(), "-0.0");
  EXPECT_EQ(Operand::FpImm(0.1).ToString(), "0.1");
  EXPECT_EQ(Operand::FpImm(100.0).ToString(), "100.0");
  EXPECT_EQ(Operand::FpImm(123456.0).ToString(), "123456.0");
  EXPECT_EQ(Operand::FpImm(1e20).ToString(), "1e+20");
  EXPECT_EQ(Operand::FpImm(1e-5).ToString(), "1e-05");
}

TEST(CanonicalTextTest, FpImmediatesWidenOnlyWhenPercentGLoses) {
  // %g would print "1.23457" and "1.23457e+06": neither reads back.
  EXPECT_EQ(Operand::FpImm(1.2345678).ToString(), "1.2345678");
  EXPECT_EQ(Operand::FpImm(1234567.0).ToString(), "1234567.0");
  EXPECT_EQ(Operand::FpImm(0.1 + 0.2).ToString(), "0.30000000000000004");
  EXPECT_EQ(Operand::FpImm(std::numeric_limits<double>::max()).ToString(),
            "1.7976931348623157e+308");
}

TEST(CanonicalTextTest, RandomFiniteFpImmediatesRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t bits = rng.Next();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    const std::string text = Operand::FpImm(value).ToString();
    const ParseResult<Operand> parsed = ParseOperand(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.error;
    ASSERT_EQ(parsed.value->kind(), OperandKind::kFpImmediate) << text;
    EXPECT_EQ(parsed.value->fp_imm(), value) << text;
  }
}

TEST(CanonicalTextTest, InstructionAndBlockForms) {
  EXPECT_EQ(Parse("lock add qword ptr fs:[rax], rbx").ToString(),
            "LOCK ADD QWORD PTR FS:[RAX], RBX");
  EXPECT_EQ(Parse("rep movsb").ToString(), "REP MOVSB");
  EXPECT_EQ(Parse("lea rdx, [rsi+8*rdi-24]").ToString(),
            "LEA RDX, [RSI + 8*RDI - 24]");
  EXPECT_EQ(Parse("cdq").ToString(), "CDQ");
  EXPECT_EQ(Parse("sub rsp, 0x20\n\n# comment\ncdq").ToString(),
            "SUB RSP, 32\nCDQ");
  EXPECT_EQ(BasicBlock{}.ToString(), "");
}

TEST(CanonicalTextTest, AppendToAppends) {
  const BasicBlock block = Parse("ADD RAX, RBX\nCDQ");
  std::string out = "prefix|";
  block.AppendTo(out);
  EXPECT_EQ(out, "prefix|ADD RAX, RBX\nCDQ");
  block.instructions[0].operands[1].AppendTo(out);
  EXPECT_EQ(out, "prefix|ADD RAX, RBX\nCDQRBX");
}

/** Literal fingerprints of hand-written blocks; see the file comment. */
TEST(CanonicalTextTest, GoldenFingerprints) {
  struct Golden {
    const char* text;
    uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {"MOV RAX, QWORD PTR [RBP - 8]\n"
       "ADD DWORD PTR [RAX + 4*RBX + 16], ECX\n"
       "LEA RDX, [RSI + 8*RDI - 24]\n"
       "IMUL RCX, RCX, 3",
       0xD0EFB44E51D5CC76ull},
      {"LOCK ADD QWORD PTR FS:[RAX], RBX\n"
       "REP MOVSB\n"
       "MOV RAX, QWORD PTR GS:[40]\n"
       "XOR EAX, EAX",
       0x96CACECDA7B5A851ull},
      {"VADDPS YMM0, YMM1, YMMWORD PTR [RSI + 32]\n"
       "MOVAPS XMM2, XMMWORD PTR [RDI]\n"
       "VMOVUPS YMMWORD PTR [RDX + 2*RCX], YMM0",
       0x5DF0A9D8F09C4E64ull},
      {"MOV RAX, 1.5\n"
       "MOV RBX, 2.0\n"
       "MOV RCX, -0.25\n"
       "MOV BYTE PTR [0], AL\n"
       "MOV WORD PTR [-8], AX",
       0x1410A4F883A9704Aull},
      {"PUSH RBP\n"
       "MOV RBP, RSP\n"
       "SUB RSP, 0x20\n"
       "MOV DWORD PTR [RBP - 4], EDI\n"
       "CMP DWORD PTR [RBP - 4], -2147483648\n"
       "POP RBP",
       0xBB9BBF570FC5BEBDull},
  };
  for (const Golden& golden : goldens) {
    EXPECT_EQ(uarch::BlockFingerprint(Parse(golden.text)), golden.fingerprint)
        << golden.text;
  }
}

/** A digest of the fingerprints of 2,000 default-generator blocks. */
TEST(CanonicalTextTest, GoldenGeneratorFingerprintDigest) {
  dataset::BlockGenerator generator(dataset::GeneratorConfig{}, 2024);
  uint64_t digest = 0;
  for (int i = 0; i < 2000; ++i) {
    digest = digest * 31 + uarch::BlockFingerprint(generator.Generate());
  }
  EXPECT_EQ(digest, 0x832F4932DF758FB2ull);
}

}  // namespace
}  // namespace granite::assembly
