#include "common/strings.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace lazyrep {

std::string StrPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string FormatShortest(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

}  // namespace lazyrep
