// String helpers.

#ifndef T10_SRC_UTIL_STRINGS_H_
#define T10_SRC_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace t10 {

// `prefix` followed by the decimal `n` (e.g. "fc3"). Built by appending:
// GCC 12 raises a false -Wrestrict error in optimized builds on the
// equivalent "fc" + std::to_string(n), i.e. operator+(const char*, string&&).
inline std::string NumberedName(std::string_view prefix, std::int64_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace t10

#endif  // T10_SRC_UTIL_STRINGS_H_
