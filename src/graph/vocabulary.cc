#include "graph/vocabulary.h"

#include "asm/instruction.h"
#include "asm/registers.h"
#include "asm/semantics.h"
#include "base/logging.h"

namespace granite::graph {

Vocabulary::Vocabulary(std::vector<std::string> tokens)
    : tokens_(std::move(tokens)) {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    const auto [it, inserted] =
        index_.emplace(tokens_[i], static_cast<int>(i));
    (void)it;
    GRANITE_CHECK_MSG(inserted, "duplicate token: " << tokens_[i]);
  }
  const auto unknown = index_.find(kUnknownToken);
  GRANITE_CHECK_MSG(unknown != index_.end(),
                    "vocabulary must contain " << kUnknownToken);
  unknown_index_ = unknown->second;
  immediate_token_ = TokenIndex(kImmediateToken);
  fp_immediate_token_ = TokenIndex(kFpImmediateToken);
  address_token_ = TokenIndex(kAddressToken);
  memory_token_ = TokenIndex(kMemoryToken);
  for (const assembly::RegisterInfo& info : assembly::RegisterTable()) {
    register_token_.push_back(TokenIndex(info.name));
  }
  const assembly::SemanticsCatalog& catalog =
      assembly::SemanticsCatalog::Get();
  for (std::size_t row = 0; row < catalog.size(); ++row) {
    mnemonic_token_.push_back(TokenIndex(catalog.Row(row).mnemonic));
  }
}

Vocabulary Vocabulary::CreateDefault() {
  std::vector<std::string> tokens;
  tokens.push_back(kUnknownToken);
  tokens.push_back(kImmediateToken);
  tokens.push_back(kFpImmediateToken);
  tokens.push_back(kAddressToken);
  tokens.push_back(kMemoryToken);
  for (const std::string_view prefix : assembly::kInstructionPrefixes) {
    tokens.emplace_back(prefix);
  }
  for (const assembly::RegisterInfo& info : assembly::RegisterTable()) {
    tokens.push_back(info.name);
  }
  for (const std::string& mnemonic :
       assembly::SemanticsCatalog::Get().Mnemonics()) {
    tokens.push_back(mnemonic);
  }
  return Vocabulary(std::move(tokens));
}

int Vocabulary::TokenIndex(const std::string& token) const {
  const auto it = index_.find(token);
  return it == index_.end() ? unknown_index_ : it->second;
}

}  // namespace granite::graph
