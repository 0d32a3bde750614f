#include "base/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace granite {

std::string_view StripWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
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
  for (char& c : result) c = std::toupper(static_cast<unsigned char>(c));
  return result;
}

std::string ToLower(std::string_view text) {
  std::string result(text);
  for (char& c : result) c = std::tolower(static_cast<unsigned char>(c));
  return result;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
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
  const std::string buffer(text);
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
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
template std::optional<double> ParseDecimal(std::string_view);

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string result;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) result.append(separator);
    result.append(pieces[i]);
  }
  return result;
}

}  // namespace granite
