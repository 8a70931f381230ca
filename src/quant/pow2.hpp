// Integer power-of-two weight quantization (paper Section 5).
//
// Each weight w is represented by <s, e>: sign s and exponent
// e = max(round(log2|w|), -7), so the quantized value is s * 2^e. Because
// trained weight magnitudes are (almost always) below 1, e ranges over the 8
// values {0, -1, ..., -7}, giving a 4-bit encoding: 1 sign bit + 3 exponent
// bits. Multiplication by such a weight is an arithmetic shift in hardware.
//
// There is no zero code: w == 0 maps to the smallest magnitude 2^-7 — this
// matches the paper's encoding, and fine-tuning compensates.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace mfdfp::quant {

/// Exponent bounds of the 4-bit encoding.
inline constexpr int kPow2MinExp = -7;
inline constexpr int kPow2MaxExp = 0;

/// Decoded power-of-two weight.
struct Pow2Weight {
  bool negative = false;
  int exponent = kPow2MinExp;  ///< in [kPow2MinExp, kPow2MaxExp]

  [[nodiscard]] float value() const noexcept;
  [[nodiscard]] bool operator==(const Pow2Weight&) const noexcept = default;
};

enum class Rounding {
  kDeterministic,  ///< round(log2|w|) to nearest (paper's choice)
  kStochastic,     ///< Courbariaux-style stochastic rounding in log domain
};

/// Quantizes one float weight. `rng` is only consulted for kStochastic.
[[nodiscard]] Pow2Weight quantize_pow2(float w,
                                       Rounding rounding =
                                           Rounding::kDeterministic,
                                       util::Rng* rng = nullptr);

/// Nearest power-of-two value of `w` (deterministic mode convenience).
[[nodiscard]] float pow2_value(float w);

/// 4-bit nibble encoding: bit3 = sign (1 = negative), bits2..0 = -e.
[[nodiscard]] std::uint8_t encode_nibble(const Pow2Weight& w) noexcept;
[[nodiscard]] Pow2Weight decode_nibble(std::uint8_t nibble) noexcept;

/// Packs a weight tensor into nibbles, two per byte (low nibble first).
/// The packed stream is what the accelerator's weight buffer holds; its size
/// in bytes backs the Table 3 memory accounting.
[[nodiscard]] std::vector<std::uint8_t> pack_pow2(const tensor::Tensor& w);

/// Unpacks `count` weights from a nibble stream (low nibble first) — the
/// one walker of a packed weight stream. Throws std::invalid_argument when
/// the stream holds fewer than `count` nibbles.
[[nodiscard]] std::vector<Pow2Weight> unpack_pow2(
    const std::vector<std::uint8_t>& packed, std::size_t count);

/// Quantizes every element of `src` into `dst` (shapes must match).
void quantize_tensor_pow2(const tensor::Tensor& src, tensor::Tensor& dst,
                          Rounding rounding = Rounding::kDeterministic,
                          util::Rng* rng = nullptr);

}  // namespace mfdfp::quant
