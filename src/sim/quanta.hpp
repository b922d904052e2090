#pragma once

#include <cstdint>
#include <stdexcept>

namespace photorack::sim {

/// Capacity in integer millionths of the ledger's unit (1 kb/s of Gb/s, 1 kB
/// of GB), as sim/time.hpp keeps time in integer picoseconds: sums are exact
/// and order-independent, so a ledger charged and then released in any order
/// reads exactly zero again, with no epsilon thresholds or snap-to-zero.
using Quanta = std::int64_t;

inline constexpr Quanta kQuantaPerUnit = 1'000'000;

/// Largest magnitude of one ledger value, 2^53 quanta (about 9e9 Gb/s or GB):
/// exact as a double, and a sum of 2^10 such values still fits in Quanta.
inline constexpr Quanta kMaxQuanta = Quanta{1} << 53;

/// Round a unit value (Gb/s, GB) to the nearest quantum; NaN or a magnitude
/// beyond kMaxQuanta throws std::out_of_range instead of overflowing.
[[nodiscard]] constexpr Quanta to_quanta(double units) {
  const double q = units * static_cast<double>(kQuantaPerUnit);
  constexpr auto max = static_cast<double>(kMaxQuanta);
  if (!(q >= -max && q <= max))
    throw std::out_of_range("sim::to_quanta: value outside the capacity ledger range");
  return static_cast<Quanta>(q < 0.0 ? q - 0.5 : q + 0.5);
}

[[nodiscard]] constexpr double from_quanta(Quanta q) {
  return static_cast<double>(q) / static_cast<double>(kQuantaPerUnit);
}

/// `part / whole` as a fraction, or `if_empty` when `whole` is 0.
[[nodiscard]] constexpr double ratio(Quanta part, Quanta whole, double if_empty = 0.0) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : if_empty;
}

}  // namespace photorack::sim
