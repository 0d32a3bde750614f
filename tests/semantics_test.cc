/**
 * @file
 * Tests of the instruction-semantics catalog.
 */
#include <cctype>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "asm/semantics.h"

namespace granite::assembly {
namespace {

const InstructionSemantics& Sem(const char* mnemonic) {
  return SemanticsCatalog::Get().Require(mnemonic);
}

TEST(SemanticsCatalogTest, CatalogIsLarge) {
  // A reproduction that supports fewer than 100 mnemonics would not cover
  // the BHive instruction mix.
  EXPECT_GE(SemanticsCatalog::Get().size(), 100u);
}

TEST(SemanticsCatalogTest, FindIsCaseInsensitive) {
  EXPECT_NE(SemanticsCatalog::Get().Find("add"), nullptr);
  EXPECT_NE(SemanticsCatalog::Get().Find("Add"), nullptr);
  EXPECT_EQ(SemanticsCatalog::Get().Find("NOTANOPCODE"), nullptr);
}

TEST(SemanticsCatalogTest, FindResolvesEverySpellingToTheCanonicalRow) {
  const SemanticsCatalog& catalog = SemanticsCatalog::Get();
  // The canonical spelling takes the exact-match path; every other
  // spelling falls back to upper-casing and lands on the same row.
  for (const char* canonical : {"ADD", "CMOVNZ", "VFMADD231PS", "MOVSB"}) {
    const InstructionSemantics* row = catalog.Find(canonical);
    ASSERT_NE(row, nullptr) << canonical;
    EXPECT_EQ(row->mnemonic, canonical);
    EXPECT_EQ(&catalog.Row(row->id), row);
    std::string lower = canonical;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    std::string mixed = lower;
    mixed[0] = static_cast<char>(std::toupper(mixed[0]));
    EXPECT_EQ(catalog.Find(lower), row) << lower;
    EXPECT_EQ(catalog.Find(mixed), row) << mixed;
  }
  EXPECT_EQ(catalog.Find("addq"), nullptr);
  EXPECT_EQ(catalog.Find(""), nullptr);
}

TEST(SemanticsCatalogTest, RowIdsAreDense) {
  const SemanticsCatalog& catalog = SemanticsCatalog::Get();
  for (std::size_t id = 0; id < catalog.size(); ++id) {
    EXPECT_EQ(catalog.Row(id).id, static_cast<int>(id));
    EXPECT_EQ(catalog.Find(catalog.Row(id).mnemonic), &catalog.Row(id));
  }
}

TEST(SemanticsCatalogTest, MovWritesDestReadsSource) {
  const auto usage = *Sem("MOV").UsageForArity(2);
  EXPECT_EQ(usage[0], OperandUsage::kWrite);
  EXPECT_EQ(usage[1], OperandUsage::kRead);
  EXPECT_FALSE(Sem("MOV").writes_flags);
}

TEST(SemanticsCatalogTest, AddIsReadModifyWriteAndWritesFlags) {
  const auto usage = *Sem("ADD").UsageForArity(2);
  EXPECT_EQ(usage[0], OperandUsage::kReadWrite);
  EXPECT_EQ(usage[1], OperandUsage::kRead);
  EXPECT_TRUE(Sem("ADD").writes_flags);
  EXPECT_FALSE(Sem("ADD").reads_flags);
}

TEST(SemanticsCatalogTest, CmpOnlyReads) {
  const auto usage = *Sem("CMP").UsageForArity(2);
  EXPECT_EQ(usage[0], OperandUsage::kRead);
  EXPECT_EQ(usage[1], OperandUsage::kRead);
  EXPECT_TRUE(Sem("CMP").writes_flags);
}

TEST(SemanticsCatalogTest, SbbReadsAndWritesFlags) {
  EXPECT_TRUE(Sem("SBB").reads_flags);
  EXPECT_TRUE(Sem("SBB").writes_flags);
}

TEST(SemanticsCatalogTest, CmovReadsFlagsWithoutWriting) {
  for (const char* mnemonic : {"CMOVE", "CMOVG", "CMOVLE", "CMOVNS"}) {
    EXPECT_TRUE(Sem(mnemonic).reads_flags) << mnemonic;
    EXPECT_FALSE(Sem(mnemonic).writes_flags) << mnemonic;
    const auto usage = *Sem(mnemonic).UsageForArity(2);
    EXPECT_EQ(usage[0], OperandUsage::kReadWrite) << mnemonic;
  }
}

TEST(SemanticsCatalogTest, ConditionFamilyAliasesMatchCanonicalEntry) {
  // Real disassemblers emit alias spellings of the same condition codes
  // (SETNZ == SETNE, CMOVC == CMOVB, ...); every family member must be
  // present and resolve to the canonical member's category and usage.
  static const char* kConditions[] = {
      "E",  "NE",  "L",  "LE",  "G",  "GE",  "A",  "AE", "B",  "BE",
      "S",  "NS",  "Z",  "NZ",  "C",  "NC",  "O",  "NO", "P",  "NP",
      "PE", "PO",  "NA", "NAE", "NB", "NBE", "NG", "NGE", "NL", "NLE"};
  for (const char* stem : {"CMOV", "SET"}) {
    const InstructionSemantics& canonical =
        Sem((std::string(stem) + "E").c_str());
    for (const char* condition : kConditions) {
      const std::string mnemonic = std::string(stem) + condition;
      const InstructionSemantics* entry =
          SemanticsCatalog::Get().Find(mnemonic);
      ASSERT_NE(entry, nullptr) << mnemonic;
      EXPECT_EQ(entry->category, canonical.category) << mnemonic;
      EXPECT_EQ(entry->usage_by_arity, canonical.usage_by_arity)
          << mnemonic;
      EXPECT_EQ(entry->reads_flags, canonical.reads_flags) << mnemonic;
      EXPECT_EQ(entry->writes_flags, canonical.writes_flags) << mnemonic;
    }
  }
}

TEST(SemanticsCatalogTest, MulUsesAccumulator) {
  const InstructionSemantics& mul = Sem("MUL");
  ASSERT_EQ(mul.implicit_reads.size(), 1u);
  EXPECT_EQ(RegisterName(mul.implicit_reads[0]), "RAX");
  ASSERT_EQ(mul.implicit_writes.size(), 2u);
}

TEST(SemanticsCatalogTest, DivReadsAndWritesRaxRdx) {
  const InstructionSemantics& div = Sem("DIV");
  EXPECT_EQ(div.implicit_reads.size(), 2u);
  EXPECT_EQ(div.implicit_writes.size(), 2u);
}

TEST(SemanticsCatalogTest, ImulArities) {
  const InstructionSemantics& imul = Sem("IMUL");
  EXPECT_NE(imul.UsageForArity(1), nullptr);
  EXPECT_NE(imul.UsageForArity(2), nullptr);
  EXPECT_NE(imul.UsageForArity(3), nullptr);
  EXPECT_EQ(imul.UsageForArity(0), nullptr);
  // Implicit accumulator applies only to the one-operand form.
  EXPECT_TRUE(ImplicitOperandsApply(imul, 1));
  EXPECT_FALSE(ImplicitOperandsApply(imul, 2));
  EXPECT_FALSE(ImplicitOperandsApply(imul, 3));
}

TEST(SemanticsCatalogTest, PushPopTouchStack) {
  const InstructionSemantics& push = Sem("PUSH");
  EXPECT_TRUE(push.implicit_memory_write);
  EXPECT_FALSE(push.implicit_memory_read);
  ASSERT_EQ(push.implicit_reads.size(), 1u);
  EXPECT_EQ(RegisterName(push.implicit_reads[0]), "RSP");
  const InstructionSemantics& pop = Sem("POP");
  EXPECT_TRUE(pop.implicit_memory_read);
  EXPECT_FALSE(pop.implicit_memory_write);
}

TEST(SemanticsCatalogTest, StringOpsAreFlagged) {
  EXPECT_TRUE(Sem("MOVSB").is_string_op);
  EXPECT_TRUE(Sem("STOSQ").is_string_op);
  EXPECT_FALSE(Sem("MOV").is_string_op);
}

TEST(SemanticsCatalogTest, ShiftSupportsBothArities) {
  EXPECT_NE(Sem("SHL").UsageForArity(1), nullptr);
  EXPECT_NE(Sem("SHL").UsageForArity(2), nullptr);
}

TEST(SemanticsCatalogTest, VectorCompareWritesFlags) {
  EXPECT_TRUE(Sem("UCOMISD").writes_flags);
  const auto usage = *Sem("UCOMISD").UsageForArity(2);
  EXPECT_EQ(usage[0], OperandUsage::kRead);
}

TEST(OperandUsageForTest, ResolvesArity) {
  const auto inc = ParseInstruction("INC RAX");
  ASSERT_TRUE(inc.ok());
  const auto usage = OperandUsageFor(*inc.value);
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0], OperandUsage::kReadWrite);
}

TEST(IsSupportedInstructionTest, KnownAndUnknown) {
  const auto add = ParseInstruction("ADD RAX, RBX");
  ASSERT_TRUE(add.ok());
  EXPECT_TRUE(IsSupportedInstruction(*add.value));

  Instruction bogus;
  bogus.mnemonic = "FROBNICATE";
  EXPECT_FALSE(IsSupportedInstruction(bogus));

  // Known mnemonic, unsupported arity.
  Instruction add3;
  add3.mnemonic = "ADD";
  add3.operands = {Operand::Imm(1), Operand::Imm(2), Operand::Imm(3)};
  EXPECT_FALSE(IsSupportedInstruction(add3));
}

TEST(CheckEncodableTest, ImmediateInAnyWrittenSlotIsAnOperandFormError) {
  const SemanticsCatalog& catalog = SemanticsCatalog::Get();
  std::size_t written_slots = 0;
  for (std::size_t id = 0; id < catalog.size(); ++id) {
    const InstructionSemantics& row = catalog.Row(id);
    for (const std::vector<OperandUsage>& usage : row.usage_by_arity) {
      BasicBlock block;
      block.instructions.push_back({row.mnemonic, {}, {}});
      Instruction& instruction = block.instructions.back();
      instruction.operands.assign(usage.size(),
                                  Operand::Reg(RegisterByName("RAX")));
      EXPECT_FALSE(CheckEncodable(block).has_value())
          << instruction.ToString();
      for (std::size_t slot = 0; slot < usage.size(); ++slot) {
        if (usage[slot] == OperandUsage::kRead) continue;
        ++written_slots;
        const Operand kept = instruction.operands[slot];
        instruction.operands[slot] = Operand::Imm(5);
        const std::optional<Unencodable> refused = CheckEncodable(block);
        ASSERT_TRUE(refused.has_value()) << instruction.ToString();
        EXPECT_EQ(refused->reason, UnencodableReason::kOperandForm);
        EXPECT_EQ(refused->message,
                  row.mnemonic + " operand " + std::to_string(slot) +
                      " is written but is an immediate");
        instruction.operands[slot] = kept;
      }
    }
  }
  // Most rows write an explicit operand in some form.
  EXPECT_GT(written_slots, catalog.size() / 2);
}

TEST(CheckEncodableTest, OperandFormNamesTheWrittenKind) {
  for (const auto& [text, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"ADD 5, RAX", "ADD operand 0 is written but is an immediate"},
           {"POP 7", "POP operand 0 is written but is an immediate"},
           {"INC 1", "INC operand 0 is written but is an immediate"},
           {"LEA [RAX], RBX", "LEA operand 0 is written but is an address"},
           {"MOV 1.5, RAX",
            "MOV operand 0 is written but is a floating-point immediate"}}) {
    const auto block = ParseBasicBlock(text);
    ASSERT_TRUE(block.ok()) << text;
    const std::optional<Unencodable> refused = CheckEncodable(*block.value);
    ASSERT_TRUE(refused.has_value()) << text;
    EXPECT_EQ(refused->reason, UnencodableReason::kOperandForm) << text;
    EXPECT_EQ(refused->message, message);
  }
}

TEST(SemanticsCatalogTest, EveryEntryHasAtLeastOneArity) {
  for (const std::string& mnemonic : SemanticsCatalog::Get().Mnemonics()) {
    EXPECT_FALSE(Sem(mnemonic.c_str()).usage_by_arity.empty()) << mnemonic;
  }
}

TEST(SemanticsCatalogTest, CategoryNamesAreStable) {
  EXPECT_EQ(InstructionCategoryName(InstructionCategory::kAluSimple),
            "alu_simple");
  EXPECT_EQ(InstructionCategoryName(InstructionCategory::kDivInteger),
            "div_integer");
}

// ---- DataFlowFor --------------------------------------------------------

Instruction ParseOne(const char* text) {
  const ParseResult<Instruction> result = ParseInstruction(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

std::vector<Register> Regs(std::initializer_list<const char*> names) {
  std::vector<Register> registers;
  for (const char* name : names) registers.push_back(RegisterByName(name));
  return registers;
}

TEST(DataFlowForTest, MemoryOperandSplitsAddressReadsFromValueReads) {
  const DataFlow flow =
      DataFlowFor(ParseOne("ADD DWORD PTR FS:[RAX + 4*EBX + 8], ECX"));
  EXPECT_EQ(flow.semantics, &Sem("ADD"));
  EXPECT_EQ(flow.register_reads, Regs({"RCX"}));
  EXPECT_EQ(flow.address_reads, Regs({"RAX", "RBX", "FS"}));
  EXPECT_EQ(flow.register_writes, std::vector<Register>{FlagsRegister()});
  ASSERT_EQ(flow.memory_reads.size(), 1u);
  ASSERT_EQ(flow.memory_writes.size(), 1u);
  EXPECT_FALSE(flow.memory_reads[0].unknown);
  EXPECT_EQ(flow.memory_reads[0].width_bits, 32);
  EXPECT_EQ(flow.memory_reads[0].reference.displacement, 8);
  EXPECT_TRUE(flow.ReadsRegister(RegisterByName("RBX")));
  EXPECT_TRUE(flow.ReadsRegister(RegisterByName("RCX")));
  EXPECT_FALSE(flow.WritesRegister(RegisterByName("RAX")));
}

TEST(DataFlowForTest, LeaReadsItsAddressButNoMemory) {
  const DataFlow flow = DataFlowFor(ParseOne("LEA RDX, [RSI + 8*RSI]"));
  EXPECT_TRUE(flow.register_reads.empty());
  EXPECT_EQ(flow.address_reads, Regs({"RSI"}));
  EXPECT_EQ(flow.register_writes, Regs({"RDX"}));
  EXPECT_TRUE(flow.memory_reads.empty());
  EXPECT_TRUE(flow.memory_writes.empty());
}

TEST(DataFlowForTest, ImplicitAccumulatorAppliesToUnaryImulOnly) {
  const DataFlow unary = DataFlowFor(ParseOne("IMUL ECX"));
  EXPECT_EQ(unary.register_reads, Regs({"RCX", "RAX"}));
  EXPECT_EQ(unary.register_writes,
            (std::vector<Register>{RegisterByName("RAX"),
                                   RegisterByName("RDX"), FlagsRegister()}));
  const DataFlow binary = DataFlowFor(ParseOne("IMUL RCX, RBX"));
  EXPECT_EQ(binary.register_reads, Regs({"RCX", "RBX"}));
  EXPECT_EQ(binary.register_writes,
            (std::vector<Register>{RegisterByName("RCX"), FlagsRegister()}));
}

TEST(DataFlowForTest, FlagsReadersAndWriters) {
  const DataFlow adc = DataFlowFor(ParseOne("ADC RAX, RBX"));
  EXPECT_TRUE(adc.ReadsRegister(FlagsRegister()));
  EXPECT_TRUE(adc.WritesRegister(FlagsRegister()));
  const DataFlow setcc = DataFlowFor(ParseOne("SETNE AL"));
  EXPECT_EQ(setcc.register_reads, std::vector<Register>{FlagsRegister()});
  EXPECT_EQ(setcc.register_writes, Regs({"RAX"}));
}

TEST(DataFlowForTest, ImplicitMemoryAccessesAreUnknown) {
  const DataFlow push = DataFlowFor(ParseOne("PUSH RBX"));
  EXPECT_EQ(push.register_reads, Regs({"RBX", "RSP"}));
  EXPECT_EQ(push.register_writes, Regs({"RSP"}));
  EXPECT_TRUE(push.memory_reads.empty());
  ASSERT_EQ(push.memory_writes.size(), 1u);
  EXPECT_TRUE(push.memory_writes[0].unknown);
  const DataFlow pop = DataFlowFor(ParseOne("POP QWORD PTR [RDI]"));
  ASSERT_EQ(pop.memory_reads.size(), 1u);
  EXPECT_TRUE(pop.memory_reads[0].unknown);
  ASSERT_EQ(pop.memory_writes.size(), 1u);
  EXPECT_FALSE(pop.memory_writes[0].unknown);
  EXPECT_EQ(pop.address_reads, Regs({"RDI"}));
}

TEST(DataFlowForTest, RepStringOperationsCycleRcx) {
  const DataFlow plain = DataFlowFor(ParseOne("MOVSB"));
  EXPECT_EQ(plain.register_reads, Regs({"RSI", "RDI"}));
  EXPECT_FALSE(plain.ReadsRegister(RegisterByName("RCX")));
  for (const char* prefix : {"REP", "REPE", "REPZ", "REPNE", "REPNZ"}) {
    const DataFlow rep =
        DataFlowFor(ParseOne((std::string(prefix) + " STOSQ").c_str()));
    EXPECT_EQ(rep.register_reads, Regs({"RAX", "RDI", "RCX"})) << prefix;
    EXPECT_EQ(rep.register_writes, Regs({"RDI", "RCX"})) << prefix;
  }
  // LOCK is not a REP prefix, and REP on a non-string op adds nothing.
  EXPECT_FALSE(DataFlowFor(ParseOne("LOCK ADD QWORD PTR [RAX], 1"))
                   .ReadsRegister(RegisterByName("RCX")));
  EXPECT_FALSE(
      DataFlowFor(ParseOne("REP NOP")).ReadsRegister(RegisterByName("RCX")));
}

}  // namespace
}  // namespace granite::assembly
