// Whole-token numeric flag parsing for every command-line tool: the
// runners (through runner_args.hpp), trace_validate, netlist_analyze and
// telemetry_tail. A malformed value is a usage error: the tool prints
// bad_value's diagnostic and exits 2. Standard library only, so a tool
// that includes it links nothing more.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

namespace ironic::tools {

// Whole-token numeric parsing: the entire argument must be the number
// ("2x", "", and out-of-range values are rejected), so a typo is a usage
// error rather than a silently different run.
//
// A count is a non-negative integer that fits `Integer`. Digits only:
// strtoull would skip blanks and wrap a negative count. `base` 0 also
// takes the 0x hex form (and a leading 0 as octal), as --seed does.
template <class Integer>
bool parse_count(const char* text, Integer& out, int base = 10) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (end == text || *end != '\0' || errno == ERANGE ||
      value > static_cast<unsigned long long>(
                  std::numeric_limits<Integer>::max())) {
    return false;
  }
  out = static_cast<Integer>(value);
  return true;
}

// Any token strtod accepts in full, including inf/nan: the range of
// each quantity is the library's to enforce where it is used.
inline bool parse_real(const char* text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  out = value;
  return true;
}

// The usage-error diagnostic for a malformed numeric flag.
inline void bad_value(const std::string& program, const std::string& flag,
                      const char* want, const char* got) {
  std::cerr << program << ": " << flag << " wants " << want << ", got '"
            << got << "'\n";
}

}  // namespace ironic::tools
