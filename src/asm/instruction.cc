#include "asm/instruction.h"

#include <algorithm>
#include <iterator>

namespace granite::assembly {

bool Instruction::HasPrefix(const std::string& prefix) const {
  for (const std::string& candidate : prefixes) {
    if (candidate == prefix) return true;
  }
  return false;
}

bool Instruction::HasRepPrefix() const {
  for (const std::string& prefix : prefixes) {
    if (prefix != "LOCK" &&
        std::ranges::find(kInstructionPrefixes, prefix) !=
            std::end(kInstructionPrefixes)) {
      return true;
    }
  }
  return false;
}

void Instruction::AppendTo(std::string& out) const {
  for (const std::string& prefix : prefixes) {
    out.append(prefix);
    out.push_back(' ');
  }
  out.append(mnemonic);
  for (std::size_t i = 0; i < operands.size(); ++i) {
    out.append(i == 0 ? " " : ", ");
    operands[i].AppendTo(out);
  }
}

std::string Instruction::ToString() const {
  std::string text;
  AppendTo(text);
  return text;
}

void BasicBlock::AppendTo(std::string& out) const {
  for (std::size_t i = 0; i < instructions.size(); ++i) {
    if (i > 0) out.push_back('\n');
    instructions[i].AppendTo(out);
  }
}

std::string BasicBlock::ToString() const {
  std::string text;
  AppendTo(text);
  return text;
}

}  // namespace granite::assembly
