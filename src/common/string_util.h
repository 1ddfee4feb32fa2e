#ifndef TDAC_COMMON_STRING_UTIL_H_
#define TDAC_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace tdac {

/// Splits `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses all of `text` as a T with std::from_chars. False, leaving `*value`
/// alone, for an empty string, trailing bytes ("4x"), a sign on an unsigned
/// T, or a value out of T's range.
template <typename T>
bool ParseNumber(std::string_view text, T* value) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || ec != std::errc() || stop != end) return false;
  *value = parsed;
  return true;
}

/// Prints "--<flag>: not a number: '<text>'" to stderr and exits with the
/// usage status 2.
[[noreturn]] void ExitNotANumber(std::string_view flag, std::string_view text);

/// Parses the value of the numeric command-line flag `--<flag>` into
/// `*value` (ParseNumber). A malformed value is a usage error naming the
/// flag: the process exits with status 2.
template <typename T>
void ParseNumberFlag(std::string_view flag, std::string_view text, T* value) {
  if (!ParseNumber(text, value)) ExitNotANumber(flag, text);
}

}  // namespace tdac

#endif  // TDAC_COMMON_STRING_UTIL_H_
