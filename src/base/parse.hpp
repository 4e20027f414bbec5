// Strict number parsing for command-line flags. Every CLI in tools/,
// bench/ and examples/ reads its numeric flags through parse_number, so
// "4x", "", " 4", "+4", "0x10", "nan" and out-of-range values are
// refused alike instead of silently becoming 0 or a prefix.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace chortle::base {

/// Parses all of `text` as a decimal number of type T in [lo, hi] and
/// stores it in `out`; returns false (leaving `out` untouched) on
/// anything else. A '-' sign is only accepted when `lo` is negative, so
/// "-0" is refused where the value must be non-negative; '+' and
/// surrounding whitespace are never accepted. Floating-point values
/// must be finite.
template <typename T>
bool parse_number(
    std::string_view text, T& out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return false;
  // from_chars itself refuses a sign for unsigned types.
  if constexpr (std::is_signed_v<T>) {
    if (text.front() == '-' && lo >= 0) return false;
  }
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  if (value < lo || value > hi) return false;
  out = value;
  return true;
}

}  // namespace chortle::base
