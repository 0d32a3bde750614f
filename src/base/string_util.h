/**
 * @file
 * Small string helpers used by the assembly parser and report writers,
 * and the FNV-1a hash behind checksums and block fingerprints.
 *
 * The whitespace and case helpers are ASCII-only: whitespace is the six
 * bytes " \t\n\v\f\r", and only 'a'-'z' / 'A'-'Z' change case. Every
 * other byte, UTF-8 and Latin-1 included, is ordinary text. This is what
 * the <cctype> functions answer in the "C" locale, the only locale the
 * program runs in, without a libc call per byte.
 */
#ifndef GRANITE_BASE_STRING_UTIL_H_
#define GRANITE_BASE_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace granite {

/** True for the six ASCII whitespace bytes " \t\n\v\f\r". */
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Upper-cases 'a'-'z'; every other byte is returned as is. */
constexpr char AsciiToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/** Removes leading and trailing ASCII whitespace. */
std::string_view StripWhitespace(std::string_view text);

/** Splits `text` on `delimiter`, keeping empty pieces. */
std::vector<std::string_view> Split(std::string_view text, char delimiter);

/** Splits `text` on `delimiter` and strips each piece; drops empty pieces. */
std::vector<std::string_view> SplitAndStrip(std::string_view text,
                                            char delimiter);

/** Returns an upper-cased copy (ASCII only). */
std::string ToUpper(std::string_view text);

/** Case-insensitive ASCII string equality. */
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/** True if `text` starts with `prefix` (case sensitive). */
bool StartsWith(std::string_view text, std::string_view prefix);

/**
 * Parses a signed integer literal. Accepts decimal ("42", "-3") and
 * hexadecimal ("0x1F", "-0x8") forms.
 * @return std::nullopt when `text` is not a well-formed integer.
 */
std::optional<int64_t> ParseInt(std::string_view text);

/**
 * Parses a floating-point literal the way strtod does, after stripping
 * whitespace: a sign, hex floats, "nan" and "inf" are accepted,
 * overflow gives infinity and underflow zero. nullopt when any byte is
 * left unread.
 */
std::optional<double> ParseDouble(std::string_view text);

/**
 * Parses all of `text` as one plain decimal number with std::from_chars:
 * an optional '-' (not for unsigned T), digits, and for float and double
 * a fraction and exponent. Whitespace, '+', hex, trailing bytes and values
 * outside T's range give nullopt. For floating T, "nan" and "inf" parse;
 * callers that need a finite value check it. Bundle configs and
 * granite_cli flags share this one spelling. Defined for int64_t,
 * uint64_t, float and double.
 */
template <typename T>
std::optional<T> ParseDecimal(std::string_view text);

/** The 64-bit FNV-1a offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/**
 * Folds `bytes` into the 64-bit FNV-1a hash `hash`; start from
 * kFnvOffsetBasis. Bundle and corpus checksums and block fingerprints
 * are this hash, so its bytes are part of those formats.
 */
inline std::uint64_t Fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace granite

#endif  // GRANITE_BASE_STRING_UTIL_H_
