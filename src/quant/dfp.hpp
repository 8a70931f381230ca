// Dynamic fixed-point (DFP) value format (paper Section 4).
//
// A DFP format is a pair <b, f>: b-bit two's-complement codes interpreted as
// code * 2^-f. "Dynamic" means different layers use different f; the format
// itself is static per layer. The paper fixes b = 8 for all activations.
//
// quantize() is round-to-nearest with saturation to the representable range
// [-(2^(b-1)) * 2^-f, (2^(b-1)-1) * 2^-f].
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"

namespace mfdfp::quant {

struct DfpFormat {
  int bits = 8;  ///< total width incl. sign; 2 <= bits <= 31
  int frac = 0;  ///< fractional length f (may be negative or > bits)

  /// Value of one LSB: 2^-frac.
  [[nodiscard]] double step() const noexcept;

  /// Smallest/largest representable values.
  [[nodiscard]] double min_value() const noexcept;
  [[nodiscard]] double max_value() const noexcept;

  /// Integer code range.
  [[nodiscard]] std::int32_t min_code() const noexcept {
    return -(std::int32_t{1} << (bits - 1));
  }
  [[nodiscard]] std::int32_t max_code() const noexcept {
    return (std::int32_t{1} << (bits - 1)) - 1;
  }

  /// Nearest representable code for `value` (round half away from zero,
  /// saturating; NaN encodes as 0): encode_scaled(value / step()).
  [[nodiscard]] std::int32_t encode(float value) const noexcept;

  /// encode()'s rounding of a value already in code units: round half away
  /// from zero (symmetric around 0, like an RTL sign-magnitude rounder),
  /// then saturate to [min_code(), max_code()]. NaN encodes as 0.
  ///
  /// No sign branch and no libm call, yet the same code as the reference
  /// spelling clamp(y >= 0 ? floor(y + 0.5) : ceil(y - 0.5)) for every
  /// non-NaN y. Adding copysign(0.5, y) builds the same double sum as
  /// y + 0.5 or y - 0.5 (-0.0 takes -0.5, and both forms give code 0), and
  /// truncation is floor on a positive sum and ceil on a negative one.
  /// Saturating before truncating changes nothing, because truncation is
  /// monotone and keeps the integer rails; it also keeps the cast inside
  /// int32. Every step is a select or plain arithmetic, so GCC at -O3
  /// vectorizes a loop over encode_scaled (hw::CodeTensor::encode_into).
  [[nodiscard]] std::int32_t encode_scaled(double scaled) const noexcept {
    const double rounded = scaled + std::copysign(0.5, scaled);
    const double saturated =
        std::min(std::max(rounded, static_cast<double>(min_code())),
                 static_cast<double>(max_code()));
    return static_cast<std::int32_t>(std::isnan(scaled) ? 0.0 : saturated);
  }

  /// Real value of a code (no range check).
  [[nodiscard]] float decode(std::int32_t code) const noexcept;

  /// encode-then-decode: nearest representable value.
  [[nodiscard]] float quantize(float value) const noexcept;

  /// "<8,5>" display form.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool operator==(const DfpFormat&) const noexcept = default;
};

/// Chooses the fractional length for `bits`-wide codes so that `max_abs`
/// fits without saturation of the negative range: the minimal number of
/// integer bits il with 2^(il-1) >= max_abs, then f = bits - il.
/// A zero/degenerate range yields the all-fractional format f = bits - 1.
[[nodiscard]] DfpFormat choose_format(float max_abs, int bits = 8);

/// Quantizes every element of `src` into `dst` (shapes must match).
void quantize_tensor(const DfpFormat& format, const tensor::Tensor& src,
                     tensor::Tensor& dst);

/// Returns the worst-case (max) absolute quantization error over the tensor.
[[nodiscard]] float quantization_error(const DfpFormat& format,
                                       const tensor::Tensor& src);

}  // namespace mfdfp::quant
