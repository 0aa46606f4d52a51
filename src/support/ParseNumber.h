//===- support/ParseNumber.h - Checked numbers from outside -----*- C++ -*-===//
///
/// \file
/// Full-string parses for numbers that come from outside the program
/// (command-line options). A sign, a blank, a stray character, an empty
/// string or an overflow is nullopt — never a silent 0 or a wrapped value.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SUPPORT_PARSENUMBER_H
#define PYPM_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace pypm {

/// A decimal count: digits only, at most UINT64_MAX.
inline std::optional<uint64_t> parseCount(std::string_view S) {
  uint64_t V = 0;
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (S.empty() || Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return V;
}

/// A finite, non-negative decimal number (e.g. a millisecond budget).
inline std::optional<double> parseNonNegative(std::string_view S) {
  double V = 0;
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (S.empty() || Ec != std::errc() || Ptr != End || !std::isfinite(V) ||
      V < 0)
    return std::nullopt;
  return V;
}

} // namespace pypm

#endif // PYPM_SUPPORT_PARSENUMBER_H
