// Integer fixed-point primitives with explicit bit-width contracts.
//
// The accelerator model computes on int64 carriers but asserts that every
// intermediate value fits the wire width the RTL would provision (Fig. 2a:
// 16-bit products, 17/18/19/20-bit adder tree ranks, accumulator, 8-bit
// output). A width violation is a hardware design bug, so it throws.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mfdfp::hw {

/// Smallest/largest value representable in `bits`-wide two's complement.
[[nodiscard]] constexpr std::int64_t min_for_bits(int bits) noexcept {
  return -(std::int64_t{1} << (bits - 1));
}
[[nodiscard]] constexpr std::int64_t max_for_bits(int bits) noexcept {
  return (std::int64_t{1} << (bits - 1)) - 1;
}

/// True iff `value` fits in `bits`-wide two's complement.
[[nodiscard]] constexpr bool fits_bits(std::int64_t value, int bits) noexcept {
  return value >= min_for_bits(bits) && value <= max_for_bits(bits);
}

/// Asserts the wire-width contract; throws std::logic_error on violation.
inline std::int64_t check_width(std::int64_t value, int bits,
                                const char* wire) {
  if (!fits_bits(value, bits)) {
    throw std::logic_error(std::string("width violation on ") + wire + ": " +
                           std::to_string(value) + " does not fit " +
                           std::to_string(bits) + " bits");
  }
  return value;
}

/// Saturates `value` into `bits`-wide two's complement.
[[nodiscard]] constexpr std::int64_t saturate(std::int64_t value,
                                              int bits) noexcept {
  if (value < min_for_bits(bits)) return min_for_bits(bits);
  if (value > max_for_bits(bits)) return max_for_bits(bits);
  return value;
}

/// Arithmetic right shift with round-half-away-from-zero — the rounding the
/// Accumulator & Routing block applies when realigning radix points. Matches
/// quant::DfpFormat::encode so software and hardware models agree bit-exact.
/// shift must be >= 0. Inline: the per-output routing tail calls it.
[[nodiscard]] inline std::int64_t shift_round(std::int64_t value, int shift) {
  if (shift < 0) throw std::invalid_argument("shift_round: negative shift");
  if (shift == 0) return value;
  if (shift >= 63) return 0;
  // Round the magnitude, then restore the sign, without a sign branch: m is
  // all ones for a negative value, so (v ^ m) - m is |v| and (r ^ m) - m is
  // -r. On uint64_t every step is defined, INT64_MIN (magnitude 2^63)
  // included, and |v| + half < 2^64 for shift <= 62.
  const auto m = static_cast<std::uint64_t>(value >> 63);
  const std::uint64_t magnitude = (static_cast<std::uint64_t>(value) ^ m) - m;
  const std::uint64_t half = std::uint64_t{1} << (shift - 1);
  const std::uint64_t rounded = (magnitude + half) >> shift;
  return static_cast<std::int64_t>((rounded ^ m) - m);
}

/// Left shift with overflow check against int64 (model carrier, not a wire).
[[nodiscard]] std::int64_t shift_left_checked(std::int64_t value, int shift);

}  // namespace mfdfp::hw
