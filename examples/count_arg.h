// Checked number parsing for the campaign CLIs (campaign, campaign_server,
// campaign_load): bare strtoul would wrap -1 to 2^64-1 and truncate an
// over-wide value into its field, and bare strtoul/strtod read "banana" as
// 0, so a thread count, seed or probability would come out as something
// nobody asked for.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace sbm::cli {

/// Parses `value` (the argument of option `flag`) as an integer in
/// [0, max] and stores it in `out`.  A negative, non-numeric or larger
/// value prints why and exits 2 before the program starts anything.
template <class Field>
void parse_count(const std::string& flag, const char* value, Field& out,
                 unsigned long long max = std::numeric_limits<Field>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 0);
  if (end == value || *end != '\0' || std::strchr(value, '-') != nullptr || errno == ERANGE ||
      n > max) {
    std::fprintf(stderr, "%s wants an integer in 0..%llu, got '%s'\n", flag.c_str(), max, value);
    std::exit(2);
  }
  out = static_cast<Field>(n);
}

/// Parses `value` (the argument of option `flag`) as a probability in
/// [0, 1]; anything else prints why and exits 2.
inline void parse_probability(const std::string& flag, const char* value, double& out) {
  char* end = nullptr;
  const double p = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(p >= 0 && p <= 1)) {
    std::fprintf(stderr, "%s wants a probability in [0, 1], got '%s'\n", flag.c_str(), value);
    std::exit(2);
  }
  out = p;
}

}  // namespace sbm::cli
