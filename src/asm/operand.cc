#include "asm/operand.h"

#include <charconv>
#include <cmath>
#include <iterator>

#include "base/logging.h"
#include "base/string_util.h"

namespace granite::assembly {
namespace {

/** Appends the decimal digits of an integer. */
template <typename Integer>
void AppendInteger(std::string& out, Integer value) {
  char buffer[24];
  const std::to_chars_result printed =
      std::to_chars(buffer, std::end(buffer), value);
  out.append(buffer, printed.ptr);
}

/** Appends an fp immediate (the policy is documented on Operand). */
void AppendFpImmediate(std::string& out, double value) {
  char buffer[40];
  std::string_view text;
  for (int precision = 6;; ++precision) {
    const std::to_chars_result printed =
        std::to_chars(buffer, std::end(buffer), value,
                      std::chars_format::general, precision);
    text = std::string_view(buffer, printed.ptr - buffer);
    if (precision == 17 || !std::isfinite(value) ||
        ParseDouble(text) == value) {
      break;
    }
  }
  out.append(text);
  // Make sure the token reads as a float even for integral values.
  if (text.find('.') == std::string_view::npos &&
      text.find('e') == std::string_view::npos) {
    out.append(".0");
  }
}

}  // namespace

void MemoryReference::AppendTo(std::string& out) const {
  if (segment != kInvalidRegister) {
    out.append(RegisterName(segment));
    out.push_back(':');
  }
  out.push_back('[');
  bool first = true;
  if (base != kInvalidRegister) {
    out.append(RegisterName(base));
    first = false;
  }
  if (index != kInvalidRegister) {
    if (!first) out.append(" + ");
    if (scale != 1) {
      AppendInteger(out, scale);
      out.push_back('*');
    }
    out.append(RegisterName(index));
    first = false;
  }
  if (first) {
    AppendInteger(out, displacement);
  } else if (displacement != 0) {
    out.append(displacement < 0 ? " - " : " + ");
    const uint64_t bits = static_cast<uint64_t>(displacement);
    AppendInteger(out, displacement < 0 ? 0 - bits : bits);
  }
  out.push_back(']');
}

std::string MemoryReference::ToString() const {
  std::string text;
  AppendTo(text);
  return text;
}

Operand Operand::Reg(Register reg) {
  GRANITE_CHECK_NE(reg, kInvalidRegister);
  Operand operand;
  operand.kind_ = OperandKind::kRegister;
  operand.reg_ = reg;
  return operand;
}

Operand Operand::Imm(int64_t value) {
  Operand operand;
  operand.kind_ = OperandKind::kImmediate;
  operand.imm_ = value;
  return operand;
}

Operand Operand::FpImm(double value) {
  Operand operand;
  operand.kind_ = OperandKind::kFpImmediate;
  operand.fp_imm_ = value;
  return operand;
}

Operand Operand::Mem(const MemoryReference& reference, int width_bits) {
  Operand operand;
  operand.kind_ = OperandKind::kMemory;
  operand.mem_ = reference;
  operand.width_bits_ = width_bits;
  return operand;
}

Operand Operand::Addr(const MemoryReference& reference) {
  Operand operand;
  operand.kind_ = OperandKind::kAddress;
  operand.mem_ = reference;
  return operand;
}

Register Operand::reg() const {
  GRANITE_CHECK(kind_ == OperandKind::kRegister);
  return reg_;
}

int64_t Operand::imm() const {
  GRANITE_CHECK(kind_ == OperandKind::kImmediate);
  return imm_;
}

double Operand::fp_imm() const {
  GRANITE_CHECK(kind_ == OperandKind::kFpImmediate);
  return fp_imm_;
}

const MemoryReference& Operand::mem() const {
  GRANITE_CHECK(kind_ == OperandKind::kMemory ||
                kind_ == OperandKind::kAddress);
  return mem_;
}

int Operand::width_bits() const {
  GRANITE_CHECK(kind_ == OperandKind::kMemory);
  return width_bits_;
}

std::string_view MemoryWidthKeyword(int width_bits) {
  switch (width_bits) {
    case 8:
      return "BYTE PTR";
    case 16:
      return "WORD PTR";
    case 32:
      return "DWORD PTR";
    case 64:
      return "QWORD PTR";
    case 128:
      return "XMMWORD PTR";
    case 256:
      return "YMMWORD PTR";
    default:
      GRANITE_PANIC("unsupported memory width: " << width_bits);
  }
}

void Operand::AppendTo(std::string& out) const {
  switch (kind_) {
    case OperandKind::kRegister:
      out.append(RegisterName(reg_));
      return;
    case OperandKind::kImmediate:
      AppendInteger(out, imm_);
      return;
    case OperandKind::kFpImmediate:
      AppendFpImmediate(out, fp_imm_);
      return;
    case OperandKind::kMemory:
      out.append(MemoryWidthKeyword(width_bits_));
      out.push_back(' ');
      mem_.AppendTo(out);
      return;
    case OperandKind::kAddress:
      mem_.AppendTo(out);
      return;
  }
  GRANITE_PANIC("unknown operand kind");
}

std::string Operand::ToString() const {
  std::string text;
  AppendTo(text);
  return text;
}

}  // namespace granite::assembly
