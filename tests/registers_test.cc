/**
 * @file
 * Tests of the register database: lookup, aliasing, canonicalization.
 */
#include "gtest/gtest.h"
#include "asm/registers.h"

namespace granite::assembly {
namespace {

TEST(RegisterTableTest, LookupKnownRegisters) {
  for (const char* name : {"RAX", "EAX", "AX", "AL", "AH", "R8", "R8D",
                           "R15B", "XMM0", "YMM15", "EFLAGS", "RIP", "FS"}) {
    EXPECT_TRUE(LookupRegister(name).has_value()) << name;
  }
}

TEST(RegisterTableTest, LookupIsCaseInsensitive) {
  EXPECT_EQ(LookupRegister("rax"), LookupRegister("RAX"));
  EXPECT_EQ(LookupRegister("xMm3"), LookupRegister("XMM3"));
}

TEST(RegisterTableTest, UnknownRegisterIsEmpty) {
  EXPECT_FALSE(LookupRegister("RFOO").has_value());
  EXPECT_FALSE(LookupRegister("").has_value());
  EXPECT_FALSE(LookupRegister("XMM16").has_value());
}

TEST(RegisterTableTest, AliasesShareCanonical) {
  const Register rax = RegisterByName("RAX");
  for (const char* alias : {"EAX", "AX", "AL", "AH"}) {
    EXPECT_EQ(CanonicalRegister(RegisterByName(alias)), rax) << alias;
  }
  const Register r9 = RegisterByName("R9");
  for (const char* alias : {"R9D", "R9W", "R9B"}) {
    EXPECT_EQ(CanonicalRegister(RegisterByName(alias)), r9) << alias;
  }
  EXPECT_EQ(CanonicalRegister(RegisterByName("YMM4")),
            RegisterByName("XMM4"));
}

TEST(RegisterTableTest, DistinctRegistersHaveDistinctCanonical) {
  EXPECT_NE(CanonicalRegister(RegisterByName("EAX")),
            CanonicalRegister(RegisterByName("EBX")));
  EXPECT_NE(CanonicalRegister(RegisterByName("XMM1")),
            CanonicalRegister(RegisterByName("XMM2")));
}

TEST(RegisterTableTest, Widths) {
  EXPECT_EQ(GetRegisterInfo(RegisterByName("RAX")).width_bits, 64);
  EXPECT_EQ(GetRegisterInfo(RegisterByName("EAX")).width_bits, 32);
  EXPECT_EQ(GetRegisterInfo(RegisterByName("AX")).width_bits, 16);
  EXPECT_EQ(GetRegisterInfo(RegisterByName("AL")).width_bits, 8);
  EXPECT_EQ(GetRegisterInfo(RegisterByName("AH")).width_bits, 8);
  EXPECT_EQ(GetRegisterInfo(RegisterByName("XMM0")).width_bits, 128);
  EXPECT_EQ(GetRegisterInfo(RegisterByName("YMM0")).width_bits, 256);
}

TEST(RegisterTableTest, Classes) {
  EXPECT_TRUE(IsRegisterClass(RegisterByName("RCX"),
                              RegisterClass::kGeneralPurpose));
  EXPECT_TRUE(IsRegisterClass(RegisterByName("XMM5"),
                              RegisterClass::kVector));
  EXPECT_TRUE(IsRegisterClass(FlagsRegister(), RegisterClass::kFlags));
  EXPECT_TRUE(IsRegisterClass(RegisterByName("GS"),
                              RegisterClass::kSegment));
  EXPECT_TRUE(IsRegisterClass(RegisterByName("RIP"),
                              RegisterClass::kInstructionPointer));
}

TEST(RegisterTableTest, CanonicalGpListIsComplete) {
  const std::vector<Register>& gp = CanonicalGpRegisters();
  EXPECT_EQ(gp.size(), 16u);  // RAX..RSP + R8..R15.
  for (const Register reg : gp) {
    EXPECT_EQ(CanonicalRegister(reg), reg);
    EXPECT_EQ(GetRegisterInfo(reg).width_bits, 64);
  }
}

TEST(RegisterTableTest, CanonicalVectorListIsComplete) {
  EXPECT_EQ(CanonicalVectorRegisters().size(), 16u);
}

TEST(SubRegisterTest, NarrowingAliases) {
  const Register rdx = RegisterByName("RDX");
  EXPECT_EQ(SubRegister(rdx, 64), rdx);
  EXPECT_EQ(RegisterName(SubRegister(rdx, 32)), "EDX");
  EXPECT_EQ(RegisterName(SubRegister(rdx, 16)), "DX");
  // The low-byte alias is preferred over the high-byte one.
  EXPECT_EQ(RegisterName(SubRegister(rdx, 8)), "DL");
  const Register r10 = RegisterByName("R10");
  EXPECT_EQ(RegisterName(SubRegister(r10, 32)), "R10D");
  EXPECT_EQ(RegisterName(SubRegister(r10, 8)), "R10B");
}

TEST(RegisterTableTest, AllNamesRoundTripThroughLookup) {
  for (std::size_t i = 0; i < RegisterTable().size(); ++i) {
    const Register reg = static_cast<Register>(i);
    EXPECT_EQ(LookupRegister(RegisterName(reg)), reg);
  }
}

}  // namespace
}  // namespace granite::assembly
