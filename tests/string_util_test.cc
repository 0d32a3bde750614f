/**
 * @file
 * Tests of the string helpers.
 */
#include "gtest/gtest.h"
#include "base/string_util.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace granite {
namespace {

TEST(StripWhitespaceTest, Basic) {
  EXPECT_EQ(StripWhitespace("  abc  "), "abc");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
  EXPECT_EQ(StripWhitespace("\t\n abc\r "), "abc");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StripWhitespaceTest, AsciiWhitespaceOnly) {
  // The six bytes isspace() matches in the "C" locale, and nothing else:
  // a Latin-1 no-break space (0xA0) or a NUL is text.
  EXPECT_EQ(StripWhitespace(" \t\n\v\f\rabc\r\f\v\n\t "), "abc");
  EXPECT_EQ(StripWhitespace("\xa0" "abc\xa0"), "\xa0" "abc\xa0");
  EXPECT_EQ(StripWhitespace(std::string_view("\0abc", 4)),
            std::string_view("\0abc", 4));
}

TEST(SplitTest, KeepsEmptyPieces) {
  const auto pieces = Split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(SplitTest, TrailingDelimiter) {
  EXPECT_EQ(Split("a,", ',').size(), 2u);
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(SplitAndStripTest, DropsEmptyAndStrips) {
  const auto pieces = SplitAndStrip(" a , , b  ", ',');
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(CaseConversionTest, Upper) {
  EXPECT_EQ(ToUpper("mov eax, 1"), "MOV EAX, 1");
}

TEST(CaseConversionTest, BytesOutsideAsciiLettersAreKept) {
  EXPECT_EQ(ToUpper("\xe9z@[`{"), "\xe9Z@[`{");
  EXPECT_FALSE(EqualsIgnoreCase("\xe9", "\xc9"));
  EXPECT_FALSE(EqualsIgnoreCase("@", "`"));
  EXPECT_FALSE(EqualsIgnoreCase("[", "{"));
}

TEST(EqualsIgnoreCaseTest, Matches) {
  EXPECT_TRUE(EqualsIgnoreCase("DWORD", "dword"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("DWORD", "DWOR"));
  EXPECT_FALSE(EqualsIgnoreCase("A", "B"));
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("QWORD PTR", "QWORD"));
  EXPECT_FALSE(StartsWith("QW", "QWORD"));
}

TEST(ParseDecimalTest, AcceptsOnePlainSpelling) {
  EXPECT_EQ(ParseDecimal<int64_t>("42"), 42);
  EXPECT_EQ(ParseDecimal<int64_t>("-42"), -42);
  EXPECT_EQ(ParseDecimal<int64_t>("-9223372036854775808"),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseDecimal<uint64_t>("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ParseDecimal<double>("2.5e2"), 250.0);
  EXPECT_EQ(ParseDecimal<double>("-0.5"), -0.5);
}

TEST(ParseDecimalTest, RefusesEveryOtherSpelling) {
  for (const char* text : {"", "+5", " 5", "5 ", "5x", "0x10", "-", "--5",
                           "1.5", "99999999999999999999",
                           "-9223372036854775809"}) {
    EXPECT_EQ(ParseDecimal<int64_t>(text), std::nullopt) << text;
  }
  for (const char* text : {"-1", "-0", "+5", "18446744073709551616"}) {
    EXPECT_EQ(ParseDecimal<uint64_t>(text), std::nullopt) << text;
  }
  for (const char* text : {"", "+5", " 5", "5 ", "0x10", "1e999", "1.5.2"}) {
    EXPECT_EQ(ParseDecimal<double>(text), std::nullopt) << text;
  }
}

TEST(ParseIntTest, DecimalForms) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-42"), -42);
  EXPECT_EQ(ParseInt("+7"), 7);
  EXPECT_EQ(ParseInt(" 13 "), 13);
  EXPECT_EQ(ParseInt("0"), 0);
}

TEST(ParseIntTest, HexForms) {
  EXPECT_EQ(ParseInt("0x10"), 16);
  EXPECT_EQ(ParseInt("0XFF"), 255);
  EXPECT_EQ(ParseInt("-0x8"), -8);
}

TEST(ParseIntTest, Malformed) {
  EXPECT_EQ(ParseInt(""), std::nullopt);
  EXPECT_EQ(ParseInt("abc"), std::nullopt);
  EXPECT_EQ(ParseInt("12x"), std::nullopt);
  EXPECT_EQ(ParseInt("-"), std::nullopt);
  EXPECT_EQ(ParseInt("0x"), std::nullopt);
  EXPECT_EQ(ParseInt("1.5"), std::nullopt);
}

TEST(ParseIntTest, RejectsASecondSign) {
  EXPECT_EQ(ParseInt("--5"), std::nullopt);
  EXPECT_EQ(ParseInt("+-5"), std::nullopt);
  EXPECT_EQ(ParseInt("0x-5"), std::nullopt);
  EXPECT_EQ(ParseInt("-0x-5"), std::nullopt);
  // Would be INT64_MIN before the outer negation.
  EXPECT_EQ(ParseInt("--9223372036854775808"), std::nullopt);
}

TEST(ParseDoubleTest, Valid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.25"), -0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("2e3"), 2000.0);
}

TEST(ParseDoubleTest, MatchesStrtodOnEverySpelling) {
  // ParseDouble reads what strtod reads, signs, hex floats, overflow to
  // infinity, underflow to zero and NaN included.
  for (const char* text :
       {"+1.5", "0x1p3", "1e999", "-1e999", "1e-400", "nan", "-0",
        "inf", "4.9e-324", "0.1", " 2.5\t", "123456789012345678901234"}) {
    const std::optional<double> parsed = ParseDouble(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    const double expected = std::strtod(text, nullptr);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(*parsed)) << text;
    } else {
      EXPECT_EQ(std::memcmp(&expected, &*parsed, sizeof(double)), 0)
          << text << " -> " << *parsed << " vs " << expected;
    }
  }
  EXPECT_EQ(*ParseDouble("+1.5"), 1.5);
  EXPECT_EQ(*ParseDouble("0x1p3"), 8.0);
  EXPECT_EQ(*ParseDouble("1e999"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*ParseDouble("1e-400"), 0.0);
  // Long spellings read every digit.
  EXPECT_EQ(*ParseDouble("1." + std::string(400, '0') + "1"), 1.0);
  EXPECT_EQ(*ParseDouble(std::string(400, '0') + "2.5"), 2.5);
}

TEST(ParseDoubleTest, RefusesPartialReads) {
  for (const char* text : {"0x", ".", "e5", "infinityx", "1e", "- 1", "1 2"}) {
    EXPECT_EQ(ParseDouble(text), std::nullopt) << text;
  }
  EXPECT_EQ(ParseDouble(std::string_view("1\0", 2)), std::nullopt);
  EXPECT_EQ(ParseDouble(std::string_view("1.5\0" "7", 5)), std::nullopt);
}

TEST(ParseDoubleTest, Malformed) {
  EXPECT_EQ(ParseDouble(""), std::nullopt);
  EXPECT_EQ(ParseDouble("x"), std::nullopt);
  EXPECT_EQ(ParseDouble("1.5y"), std::nullopt);
}

}  // namespace
}  // namespace granite
