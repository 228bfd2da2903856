//===- support/ParseInt.h - Strict unsigned flag values ---------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for numeric command-line values (budgets, guards,
/// thread counts).  It accepts exactly a run of decimal digits: empty
/// input, a sign, whitespace, trailing bytes and out-of-range values are
/// all rejected, so a typo can never silently become 0 ("unlimited") or
/// wrap to a huge count.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_PARSEINT_H
#define HYBRIDPT_SUPPORT_PARSEINT_H

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string_view>

namespace pt {

/// Parses all of \p Text as a decimal integer in [0, \p Max] into \p Out;
/// false (with \p Out untouched) on anything else.
inline bool parseU64(std::string_view Text, uint64_t &Out,
                     uint64_t Max = UINT64_MAX) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End || V > Max)
    return false;
  Out = V;
  return true;
}

/// Parses a command-line or environment value \p Text named \p Name as a
/// decimal integer in [\p Min, \p Max].  Anything else is reported as
/// "<Tool>: bad value '<Text>' for <Name> (...)" and the process exits
/// with \p ExitCode, so callers parse before they start any thread.
inline uint64_t parseU64OrExit(std::string_view Tool, std::string_view Name,
                               std::string_view Text, uint64_t Min,
                               uint64_t Max, int ExitCode) {
  uint64_t V = 0;
  if (!parseU64(Text, V, Max) || V < Min) {
    std::cerr << Tool << ": bad value '" << Text << "' for " << Name
              << " (expected an unsigned decimal integer in " << Min << ".."
              << Max << ")\n";
    std::exit(ExitCode);
  }
  return V;
}

} // namespace pt

#endif // HYBRIDPT_SUPPORT_PARSEINT_H
