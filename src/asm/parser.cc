#include "asm/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <limits>

#include "base/string_util.h"

namespace granite::assembly {
namespace {

static_assert(std::all_of(std::begin(kInstructionPrefixes),
                          std::end(kInstructionPrefixes),
                          [](std::string_view prefix) {
                            return prefix.front() == 'L' ||
                                   prefix.front() == 'R';
                          }),
              "IsPrefixToken refuses on the first byte");

/** Instruction prefixes recognized by the parser. Every prefix starts
 * with 'L' or 'R', so most mnemonics are refused on their first byte. */
bool IsPrefixToken(std::string_view token) {
  if (token.empty()) return false;
  const char first = AsciiToUpper(token.front());
  if (first != 'L' && first != 'R') return false;
  for (const std::string_view prefix : kInstructionPrefixes) {
    if (EqualsIgnoreCase(token, prefix)) return true;
  }
  return false;
}

/** Maps a "DWORD"-style width keyword to a bit width; 0 when unknown. */
int WidthFromKeyword(std::string_view keyword) {
  if (keyword.empty()) return 0;
  switch (AsciiToUpper(keyword.front())) {
    case 'B': return EqualsIgnoreCase(keyword, "BYTE") ? 8 : 0;
    case 'W': return EqualsIgnoreCase(keyword, "WORD") ? 16 : 0;
    case 'D': return EqualsIgnoreCase(keyword, "DWORD") ? 32 : 0;
    case 'Q': return EqualsIgnoreCase(keyword, "QWORD") ? 64 : 0;
    case 'O': return EqualsIgnoreCase(keyword, "OWORD") ? 128 : 0;
    case 'X': return EqualsIgnoreCase(keyword, "XMMWORD") ? 128 : 0;
    case 'Y': return EqualsIgnoreCase(keyword, "YMMWORD") ? 256 : 0;
    default: return 0;
  }
}

/**
 * Calls `visit` on each operand of `text` in order: the stripped,
 * non-empty pieces between commas outside brackets. Stops early when
 * `visit` returns false. Returns false on unbalanced brackets: letting
 * the depth counter go negative (e.g. on "0], [0") would silently merge
 * text across the stray bracket and produce a bogus operand instead of
 * a diagnostic.
 */
template <typename Visit>
bool ForEachOperand(std::string_view text, Visit visit) {
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      const std::string_view piece =
          StripWhitespace(text.substr(start, i - start));
      if (!piece.empty() && !visit(piece)) return true;
      start = i + 1;
    } else if (text[i] == '[') {
      ++depth;
    } else if (text[i] == ']') {
      if (depth == 0) return false;
      --depth;
    }
  }
  return depth == 0;
}

/** Parses the bracketed address expression (without the brackets),
 * one +/- separated term at a time. */
ParseResult<MemoryReference> ParseAddressExpression(std::string_view expr,
                                                    Register segment) {
  MemoryReference reference;
  reference.segment = segment;

  bool saw_term = false;
  bool saw_plain_base = false;
  bool negative = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= expr.size(); ++i) {
    if (i < expr.size() && expr[i] != '+' && expr[i] != '-') continue;
    const std::string_view term =
        StripWhitespace(expr.substr(start, i - start));
    const bool term_negative = negative;
    if (i < expr.size()) negative = expr[i] == '-';
    start = i + 1;
    if (term.empty()) continue;
    saw_term = true;

    const std::size_t star = term.find('*');
    if (star != std::string_view::npos) {
      // reg*scale or scale*reg.
      const std::string_view left = StripWhitespace(term.substr(0, star));
      const std::string_view right = StripWhitespace(term.substr(star + 1));
      std::optional<Register> reg = LookupRegister(left);
      std::optional<int64_t> scale = ParseInt(right);
      if (!reg.has_value()) {
        reg = LookupRegister(right);
        scale = ParseInt(left);
      }
      if (!reg.has_value() || !scale.has_value()) {
        return {std::nullopt, "malformed scaled index: " + std::string(term)};
      }
      if (term_negative) {
        return {std::nullopt, "negative index term not allowed"};
      }
      if (*scale != 1 && *scale != 2 && *scale != 4 && *scale != 8) {
        return {std::nullopt, "invalid scale: " + std::to_string(*scale)};
      }
      if (reference.index != kInvalidRegister) {
        return {std::nullopt, "multiple index registers"};
      }
      reference.index = *reg;
      reference.scale = static_cast<int>(*scale);
      continue;
    }
    const std::optional<Register> reg = LookupRegister(term);
    if (reg.has_value()) {
      if (term_negative) {
        return {std::nullopt, "negative register term not allowed"};
      }
      if (!saw_plain_base && reference.base == kInvalidRegister) {
        reference.base = *reg;
        saw_plain_base = true;
      } else if (reference.index == kInvalidRegister) {
        reference.index = *reg;
        reference.scale = 1;
      } else {
        return {std::nullopt, "too many registers in address"};
      }
      continue;
    }
    const std::optional<int64_t> value = ParseInt(term);
    if (value.has_value()) {
      // Checked: the sum must stay a displacement whose magnitude is an
      // int64_t, so INT64_MIN is out of range as well.
      int64_t sum = 0;
      const bool overflow =
          term_negative
              ? __builtin_sub_overflow(reference.displacement, *value, &sum)
              : __builtin_add_overflow(reference.displacement, *value, &sum);
      if (overflow || sum == std::numeric_limits<int64_t>::min()) {
        return {std::nullopt,
                "displacement out of range in: " + std::string(expr)};
      }
      reference.displacement = sum;
      continue;
    }
    return {std::nullopt, "malformed address term: " + std::string(term)};
  }
  if (!saw_term) return {std::nullopt, "empty address expression"};
  return {reference, ""};
}

/** Parses "SEG:[expr]" or "[expr]" with an already-known width. */
ParseResult<Operand> ParseMemoryOperand(std::string_view text,
                                        int width_bits) {
  Register segment = kInvalidRegister;
  const std::size_t colon = text.find(':');
  if (colon != std::string_view::npos &&
      text.substr(0, colon).find('[') == std::string_view::npos) {
    const std::string_view seg_name =
        StripWhitespace(text.substr(0, colon));
    const std::optional<Register> seg = LookupRegister(seg_name);
    if (!seg.has_value() ||
        !IsRegisterClass(*seg, RegisterClass::kSegment)) {
      return {std::nullopt,
              "invalid segment override: " + std::string(seg_name)};
    }
    segment = *seg;
    text = StripWhitespace(text.substr(colon + 1));
  }
  if (text.empty() || text.front() != '[' || text.back() != ']') {
    return {std::nullopt, "expected bracketed address: " + std::string(text)};
  }
  const ParseResult<MemoryReference> reference =
      ParseAddressExpression(text.substr(1, text.size() - 2), segment);
  if (!reference.ok()) return {std::nullopt, reference.error};
  return {Operand::Mem(*reference.value, width_bits), ""};
}

}  // namespace

ParseResult<Operand> ParseOperand(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return {std::nullopt, "empty operand"};

  // Optional "<WIDTH> PTR" keyword introducing a memory operand.
  const std::size_t first_space = text.find_first_of(" \t");
  if (first_space != std::string_view::npos) {
    const std::string_view first_word = text.substr(0, first_space);
    const int width = WidthFromKeyword(first_word);
    if (width != 0) {
      std::string_view rest = StripWhitespace(text.substr(first_space));
      // llvm-mc and objdump Intel syntax emit both "QWORD PTR [RAX]" and
      // "QWORD PTR[RAX]"; accept PTR followed by whitespace, '[', or a
      // segment override, but keep rejecting other trailing characters
      // ("PTRX") as typos.
      const bool has_ptr =
          rest.size() >= 3 && EqualsIgnoreCase(rest.substr(0, 3), "PTR") &&
          (rest.size() == 3 || rest[3] == '[' || IsAsciiSpace(rest[3]));
      if (!has_ptr) {
        return {std::nullopt, "expected PTR after width keyword"};
      }
      rest = StripWhitespace(rest.substr(3));
      return ParseMemoryOperand(rest, width);
    }
  }

  // Bare memory operand (no width keyword): default to a 64-bit access.
  if (text.find('[') != std::string_view::npos) {
    return ParseMemoryOperand(text, 64);
  }

  const std::optional<Register> reg = LookupRegister(text);
  if (reg.has_value()) return {Operand::Reg(*reg), ""};

  const std::optional<int64_t> integer = ParseInt(text);
  if (integer.has_value()) return {Operand::Imm(*integer), ""};

  // Floating-point immediates are not part of the x86-64 encoding, but
  // appear in canonicalized operand streams (paper Table 2 has a dedicated
  // node type); the parser accepts them for completeness.
  const std::optional<double> fp = ParseDouble(text);
  if (fp.has_value()) {
    // nan and inf have no canonical text that reads back as themselves.
    if (!std::isfinite(*fp)) {
      return {std::nullopt,
              "non-finite floating-point immediate: " + std::string(text)};
    }
    return {Operand::FpImm(*fp), ""};
  }

  return {std::nullopt, "unrecognized operand: " + std::string(text)};
}

ParseResult<Instruction> ParseInstruction(std::string_view line) {
  std::string_view text = StripWhitespace(line);
  if (text.empty()) return {std::nullopt, "empty instruction"};

  // Tolerate "3:"-style line labels and "40100a:"-style hex address
  // labels from objdump listings (optionally 0x-prefixed). Segment
  // overrides are unaffected: every segment register name contains 'S',
  // which is not a hex digit.
  const std::size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    std::string_view label = text.substr(0, colon);
    if (StartsWith(label, "0x") || StartsWith(label, "0X")) {
      label = label.substr(2);
    }
    bool is_address_label = !label.empty();
    for (char c : label) {
      if (!std::isxdigit(static_cast<unsigned char>(c))) {
        is_address_label = false;
        break;
      }
    }
    if (is_address_label) text = StripWhitespace(text.substr(colon + 1));
  }

  Instruction instruction;
  // Peel off prefixes, then the mnemonic.
  while (true) {
    const std::size_t space = text.find_first_of(" \t");
    const std::string_view word =
        space == std::string_view::npos ? text : text.substr(0, space);
    if (word.empty()) return {std::nullopt, "missing mnemonic"};
    if (IsPrefixToken(word)) {
      instruction.prefixes.push_back(ToUpper(word));
      if (space == std::string_view::npos) {
        return {std::nullopt, "prefix without mnemonic"};
      }
      text = StripWhitespace(text.substr(space));
      continue;
    }
    instruction.mnemonic = ToUpper(word);
    text = space == std::string_view::npos
               ? std::string_view()
               : StripWhitespace(text.substr(space));
    break;
  }

  // Two walks over the operand text: the first checks the brackets and
  // counts, so the vector gets its exact capacity (parsed blocks are
  // moved, not copied, into the caller, so growth slack would stay
  // resident with them); the second parses.
  std::size_t count = 0;
  if (!ForEachOperand(text, [&count](std::string_view) {
        ++count;
        return true;
      })) {
    return {std::nullopt, "unbalanced brackets in: " + std::string(text)};
  }
  instruction.operands.reserve(count);
  std::string error;
  ForEachOperand(text, [&](std::string_view operand_text) {
    ParseResult<Operand> operand = ParseOperand(operand_text);
    if (!operand.ok()) {
      error = std::move(operand.error);
      return false;
    }
    instruction.operands.push_back(*operand.value);
    return true;
  });
  if (!error.empty()) return {std::nullopt, std::move(error)};

  // The LEA source is an address computation, not a memory access.
  if (instruction.mnemonic == "LEA") {
    for (Operand& operand : instruction.operands) {
      if (operand.kind() == OperandKind::kMemory) {
        operand = Operand::Addr(operand.mem());
      }
    }
  }
  return {std::move(instruction), ""};
}

ParseResult<BasicBlock> ParseBasicBlock(std::string_view text) {
  BasicBlock block;
  // One slot per line, blank and comment lines included.
  block.instructions.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) +
      1);
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view stripped =
        StripWhitespace(text.substr(start, end - start));
    start = end + 1;
    if (stripped.empty() || stripped.front() == '#' ||
        stripped.front() == ';') {
      continue;
    }
    ParseResult<Instruction> instruction = ParseInstruction(stripped);
    if (!instruction.ok()) {
      return {std::nullopt,
              "line '" + std::string(stripped) + "': " + instruction.error};
    }
    block.instructions.push_back(std::move(*instruction.value));
  }
  return {std::move(block), ""};
}

}  // namespace granite::assembly
