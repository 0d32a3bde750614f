#include "ithemal/tokenizer.h"

#include "asm/semantics.h"
#include "base/logging.h"

namespace granite::ithemal {
namespace {

using assembly::Operand;
using assembly::OperandKind;
using assembly::OperandUsage;

/** Appends the token(s) of one operand to `tokens`. */
void AppendOperandTokens(const Operand& operand,
                         std::vector<std::string>& tokens) {
  switch (operand.kind()) {
    case OperandKind::kRegister:
      tokens.push_back(assembly::RegisterName(operand.reg()));
      break;
    case OperandKind::kImmediate:
      tokens.push_back(graph::Vocabulary::kImmediateToken);
      break;
    case OperandKind::kFpImmediate:
      tokens.push_back(graph::Vocabulary::kFpImmediateToken);
      break;
    case OperandKind::kMemory:
    case OperandKind::kAddress: {
      const assembly::MemoryReference& reference = operand.mem();
      if (reference.base != assembly::kInvalidRegister) {
        tokens.push_back(assembly::RegisterName(reference.base));
      }
      if (reference.index != assembly::kInvalidRegister) {
        tokens.push_back(assembly::RegisterName(reference.index));
      }
      if (reference.segment != assembly::kInvalidRegister) {
        tokens.push_back(assembly::RegisterName(reference.segment));
      }
      tokens.push_back(operand.kind() == OperandKind::kMemory
                           ? graph::Vocabulary::kMemoryToken
                           : graph::Vocabulary::kAddressToken);
      break;
    }
  }
}

}  // namespace

graph::Vocabulary CreateIthemalVocabulary() {
  std::vector<std::string> tokens = graph::Vocabulary::CreateDefault().tokens();
  tokens.push_back(kSourcesToken);
  tokens.push_back(kDestinationsToken);
  tokens.push_back(kEndToken);
  return graph::Vocabulary(std::move(tokens));
}

std::vector<std::string> TokenizeInstruction(
    const assembly::Instruction& instruction) {
  const std::vector<OperandUsage>& usage =
      assembly::OperandUsageFor(instruction);
  std::vector<std::string> tokens;
  for (const std::string& prefix : instruction.prefixes) {
    tokens.push_back(prefix);
  }
  tokens.push_back(instruction.mnemonic);
  tokens.push_back(kSourcesToken);
  for (std::size_t i = 0; i < instruction.operands.size(); ++i) {
    if (usage[i] != OperandUsage::kWrite) {
      AppendOperandTokens(instruction.operands[i], tokens);
    }
  }
  tokens.push_back(kDestinationsToken);
  for (std::size_t i = 0; i < instruction.operands.size(); ++i) {
    if (usage[i] != OperandUsage::kRead) {
      AppendOperandTokens(instruction.operands[i], tokens);
    }
  }
  tokens.push_back(kEndToken);
  return tokens;
}

std::vector<int> TokenizeInstructionToIndices(
    const assembly::Instruction& instruction,
    const graph::Vocabulary& vocabulary) {
  std::vector<int> indices;
  for (const std::string& token : TokenizeInstruction(instruction)) {
    indices.push_back(vocabulary.TokenIndex(token));
  }
  return indices;
}

}  // namespace granite::ithemal
