/**
 * @file
 * Tests of the token vocabulary.
 */
#include <vector>

#include "gtest/gtest.h"
#include "asm/registers.h"
#include "asm/semantics.h"
#include "graph/vocabulary.h"

namespace granite::graph {
namespace {

TEST(VocabularyTest, DefaultContainsSpecialTokens) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  for (const char* token :
       {Vocabulary::kImmediateToken, Vocabulary::kFpImmediateToken,
        Vocabulary::kAddressToken, Vocabulary::kMemoryToken,
        Vocabulary::kUnknownToken}) {
    EXPECT_EQ(vocabulary.tokens()[vocabulary.TokenIndex(token)], token);
  }
}

TEST(VocabularyTest, DefaultContainsAllMnemonicsAndRegisters) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  for (const std::string& mnemonic :
       assembly::SemanticsCatalog::Get().Mnemonics()) {
    EXPECT_EQ(vocabulary.tokens()[vocabulary.TokenIndex(mnemonic)], mnemonic);
  }
  for (const char* reg : {"RAX", "EAX", "XMM7", "EFLAGS", "FS", "LOCK"}) {
    EXPECT_EQ(vocabulary.tokens()[vocabulary.TokenIndex(reg)], reg);
  }
}

TEST(VocabularyTest, UnknownTokensMapToUnknownIndex) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  const int unknown = vocabulary.TokenIndex(Vocabulary::kUnknownToken);
  EXPECT_EQ(vocabulary.TokenIndex("DEFINITELY_NOT_A_TOKEN"), unknown);
}

TEST(VocabularyTest, IndicesRoundTrip) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  for (int index = 0; index < vocabulary.size(); ++index) {
    EXPECT_EQ(vocabulary.TokenIndex(vocabulary.tokens()[index]), index);
  }
}

TEST(VocabularyTest, CustomVocabulary) {
  const Vocabulary vocabulary(
      {Vocabulary::kUnknownToken, "FOO", "BAR"});
  EXPECT_EQ(vocabulary.size(), 3);
  EXPECT_EQ(vocabulary.TokenIndex("FOO"), 1);
  EXPECT_EQ(vocabulary.TokenIndex("MISSING"), 0);
}

TEST(VocabularyTest, PrecomputedIdsMatchTokenIndex) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  const std::vector<assembly::RegisterInfo>& registers =
      assembly::RegisterTable();
  for (std::size_t reg = 0; reg < registers.size(); ++reg) {
    EXPECT_EQ(vocabulary.RegisterToken(static_cast<assembly::Register>(reg)),
              vocabulary.TokenIndex(registers[reg].name));
  }
  const assembly::SemanticsCatalog& catalog =
      assembly::SemanticsCatalog::Get();
  for (std::size_t row = 0; row < catalog.size(); ++row) {
    EXPECT_EQ(vocabulary.MnemonicToken(catalog.Row(row)),
              vocabulary.TokenIndex(catalog.Row(row).mnemonic));
  }
  EXPECT_EQ(vocabulary.immediate_token(),
            vocabulary.TokenIndex(Vocabulary::kImmediateToken));
  EXPECT_EQ(vocabulary.fp_immediate_token(),
            vocabulary.TokenIndex(Vocabulary::kFpImmediateToken));
  EXPECT_EQ(vocabulary.address_token(),
            vocabulary.TokenIndex(Vocabulary::kAddressToken));
  EXPECT_EQ(vocabulary.memory_token(),
            vocabulary.TokenIndex(Vocabulary::kMemoryToken));
}

TEST(VocabularyTest, CustomVocabularyMapsMissingNamesToUnknown) {
  // _UNKNOWN_ is not first, so a wrong fallback cannot pass as index 0.
  const Vocabulary vocabulary(
      {"RAX", Vocabulary::kUnknownToken, "ADD", Vocabulary::kMemoryToken});
  const int unknown = vocabulary.TokenIndex(Vocabulary::kUnknownToken);
  EXPECT_EQ(unknown, 1);
  EXPECT_EQ(vocabulary.RegisterToken(assembly::RegisterByName("RAX")), 0);
  EXPECT_EQ(vocabulary.RegisterToken(assembly::RegisterByName("EAX")),
            unknown);
  EXPECT_EQ(vocabulary.RegisterToken(assembly::RegisterByName("RBX")),
            unknown);
  const assembly::SemanticsCatalog& catalog =
      assembly::SemanticsCatalog::Get();
  EXPECT_EQ(vocabulary.MnemonicToken(catalog.Require("ADD")), 2);
  EXPECT_EQ(vocabulary.MnemonicToken(catalog.Require("SUB")), unknown);
  EXPECT_EQ(vocabulary.memory_token(), 3);
  EXPECT_EQ(vocabulary.immediate_token(), unknown);
  EXPECT_EQ(vocabulary.address_token(), unknown);
}

TEST(VocabularyTest, SizeIsStable) {
  // The vocabulary size feeds the embedding table shape and the global
  // feature width; creating it twice must agree.
  EXPECT_EQ(Vocabulary::CreateDefault().size(),
            Vocabulary::CreateDefault().size());
}

}  // namespace
}  // namespace granite::graph
