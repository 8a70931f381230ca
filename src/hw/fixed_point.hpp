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
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  if (value >= 0) {
    return (value + half) >> shift;
  }
  // Round half away from zero for negatives: mirror the positive case.
  return -((-value + half) >> shift);
}

/// Left shift with overflow check against int64 (model carrier, not a wire).
[[nodiscard]] std::int64_t shift_left_checked(std::int64_t value, int shift);

}  // namespace mfdfp::hw
