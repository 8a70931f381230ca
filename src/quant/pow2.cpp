#include "quant/pow2.hpp"

#include <cmath>
#include <stdexcept>

namespace mfdfp::quant {

float Pow2Weight::value() const noexcept {
  const float magnitude = std::ldexp(1.0f, exponent);
  return negative ? -magnitude : magnitude;
}

Pow2Weight quantize_pow2(float w, Rounding rounding, util::Rng* rng) {
  Pow2Weight q;
  q.negative = std::signbit(w);
  const float magnitude = std::fabs(w);
  if (!(magnitude > 0.0f) || !std::isfinite(magnitude)) {
    q.exponent = kPow2MinExp;  // zero / non-finite -> smallest magnitude
    return q;
  }
  const double log_mag = std::log2(static_cast<double>(magnitude));
  double rounded;
  if (rounding == Rounding::kDeterministic) {
    rounded = std::floor(log_mag + 0.5);
  } else {
    if (rng == nullptr) {
      throw std::invalid_argument("quantize_pow2: stochastic needs rng");
    }
    // P(ceil) = fractional part: unbiased in the log domain.
    const double floor_e = std::floor(log_mag);
    const double frac = log_mag - floor_e;
    rounded = floor_e + (rng->uniform() < frac ? 1.0 : 0.0);
  }
  q.exponent = static_cast<int>(
      std::min<double>(std::max<double>(rounded, kPow2MinExp), kPow2MaxExp));
  return q;
}

float pow2_value(float w) { return quantize_pow2(w).value(); }

std::uint8_t encode_nibble(const Pow2Weight& w) noexcept {
  const auto magnitude_bits = static_cast<std::uint8_t>(-w.exponent);
  return static_cast<std::uint8_t>((w.negative ? 0x8 : 0x0) |
                                   (magnitude_bits & 0x7));
}

Pow2Weight decode_nibble(std::uint8_t nibble) noexcept {
  Pow2Weight w;
  w.negative = (nibble & 0x8) != 0;
  w.exponent = -static_cast<int>(nibble & 0x7);
  return w;
}

std::vector<std::uint8_t> pack_pow2(const tensor::Tensor& w) {
  std::vector<std::uint8_t> packed((w.size() + 1) / 2, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const std::uint8_t nibble = encode_nibble(quantize_pow2(w[i]));
    if (i % 2 == 0) {
      packed[i / 2] = nibble;
    } else {
      packed[i / 2] |= static_cast<std::uint8_t>(nibble << 4);
    }
  }
  return packed;
}

std::vector<Pow2Weight> unpack_pow2(const std::vector<std::uint8_t>& packed,
                                    std::size_t count) {
  if (packed.size() < count / 2 + count % 2) {
    throw std::invalid_argument("unpack_pow2: stream too short");
  }
  std::vector<Pow2Weight> weights(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t byte = packed[i / 2];
    weights[i] = decode_nibble(
        (i % 2 == 0) ? (byte & 0xF) : static_cast<std::uint8_t>(byte >> 4));
  }
  return weights;
}

void quantize_tensor_pow2(const tensor::Tensor& src, tensor::Tensor& dst,
                          Rounding rounding, util::Rng* rng) {
  if (dst.shape() != src.shape()) {
    throw std::invalid_argument("quantize_tensor_pow2: shape mismatch");
  }
  const auto in = src.data();
  auto out = dst.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = quantize_pow2(in[i], rounding, rng).value();
  }
}

}  // namespace mfdfp::quant
