#include "base/string_util.h"

#include <charconv>
#include <cstdlib>
#include <cstring>

namespace granite {

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() && IsAsciiSpace(text[begin])) ++begin;
  std::size_t end = text.size();
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> Split(std::string_view text, char delimiter) {
  std::vector<std::string_view> pieces;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      pieces.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::vector<std::string_view> SplitAndStrip(std::string_view text,
                                            char delimiter) {
  std::vector<std::string_view> pieces;
  for (std::string_view piece : Split(text, delimiter)) {
    const std::string_view stripped = StripWhitespace(piece);
    if (!stripped.empty()) pieces.push_back(stripped);
  }
  return pieces;
}

std::string ToUpper(std::string_view text) {
  std::string result(text);
  for (char& c : result) c = AsciiToUpper(c);
  return result;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (AsciiToUpper(a[i]) != AsciiToUpper(b[i])) return false;
  }
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::optional<int64_t> ParseInt(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text.front() == '-' || text.front() == '+') {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  if (text.empty()) return std::nullopt;
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  // from_chars takes its own '-': a second sign ("--9223372036854775808")
  // would hand back INT64_MIN, whose negation below overflows.
  if (text.front() == '-') return std::nullopt;
  int64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return std::nullopt;
  // from_chars reads the plain spellings in place. Whatever it refuses or
  // finds out of range ('+', hex floats, overflow, underflow, and every
  // malformed text) goes to strtod, whose answer is the contract; strtod
  // wants a NUL-terminated copy, which fits on the stack for any real
  // number.
  if (const std::optional<double> plain = ParseDecimal<double>(text)) {
    return plain;
  }
  char stack_copy[64];
  std::string heap_copy;
  const char* copy = stack_copy;
  if (text.size() < sizeof(stack_copy)) {
    std::memcpy(stack_copy, text.data(), text.size());
    stack_copy[text.size()] = '\0';
  } else {
    heap_copy.assign(text);
    copy = heap_copy.c_str();
  }
  char* end = nullptr;
  const double value = std::strtod(copy, &end);
  if (end != copy + text.size()) return std::nullopt;
  return value;
}

template <typename T>
std::optional<T> ParseDecimal(std::string_view text) {
  const char* end = text.data() + text.size();
  T value{};
  const auto result = std::from_chars(text.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) return std::nullopt;
  return value;
}

template std::optional<int64_t> ParseDecimal(std::string_view);
template std::optional<uint64_t> ParseDecimal(std::string_view);
template std::optional<float> ParseDecimal(std::string_view);
template std::optional<double> ParseDecimal(std::string_view);

}  // namespace granite
