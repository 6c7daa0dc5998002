#ifndef LAZYREP_COMMON_STRINGS_H_
#define LAZYREP_COMMON_STRINGS_H_

#include <sstream>
#include <string>
#include <vector>

namespace lazyrep {

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Shortest decimal rendering that parses back to exactly `v`
/// ("0.1234567", "2", "1e-07").
std::string FormatShortest(double v);

/// Concatenates the stream renderings of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Joins elements with a separator using operator<< rendering.
template <typename Container>
std::string StrJoin(const Container& parts, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) os << sep;
    os << p;
    first = false;
  }
  return os.str();
}

}  // namespace lazyrep

#endif  // LAZYREP_COMMON_STRINGS_H_
