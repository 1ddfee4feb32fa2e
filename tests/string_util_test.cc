#include "common/string_util.h"

#include <gtest/gtest.h>

namespace tdac {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyStringYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StripTest, RemovesWhitespaceBothEnds) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("hi"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
}

TEST(LowerTest, AsciiOnly) {
  EXPECT_EQ(AsciiToLower("AbC123"), "abc123");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(0.8535, 3), "0.854");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
  EXPECT_EQ(FormatDouble(-1.25, 2), "-1.25");
}

TEST(EqualsIgnoreCaseTest, Basics) {
  EXPECT_TRUE(EqualsIgnoreCase("Accu", "accu"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("accu", "accusim"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(ParseNumberTest, WholeStringOnly) {
  int i = 7;
  EXPECT_TRUE(ParseNumber("-42", &i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"", "4x", " 4", "4 ", "+4", "abc", "99999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << bad;
  }
  EXPECT_EQ(i, -42);  // failures leave the target alone

  size_t n = 3;
  EXPECT_FALSE(ParseNumber("-1", &n));  // no wrap to 2^64-1
  EXPECT_TRUE(ParseNumber("18446744073709551615", &n));
  EXPECT_EQ(n, ~size_t{0});

  double d = 0.0;
  EXPECT_TRUE(ParseNumber("2.5e3", &d));
  EXPECT_EQ(d, 2500.0);
  EXPECT_FALSE(ParseNumber("5s", &d));
  EXPECT_FALSE(ParseNumber(".", &d));
}

}  // namespace
}  // namespace tdac
