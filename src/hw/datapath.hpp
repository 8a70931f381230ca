// Bit-accurate model of the multiplier-free neuron datapath (paper Fig. 2a).
//
// One neuron processes 16 synapses per cycle:
//   * each synapse multiplies an 8-bit input code by a power-of-two weight
//     <s, e> using an arithmetic shift. Products are kept at full precision
//     on 16-bit wires: p = (-1)^s * (x << (7 + e)), in units of 2^-(m+7)
//     where m is the input fractional length (no bit of the 8-bit input is
//     lost even for e = -7);
//   * a widening adder tree sums the 16 products through ranks of
//     17 / 18 / 19 / 20-bit wires;
//   * the Accumulator & Routing block accumulates tile sums for neurons with
//     more than 16 synapses, adds the bias, and realigns the radix point
//     from the input index m to the output index n with round-half-away
//     rounding, saturating into the 8-bit output.
//
// Every wire width is asserted (see fixed_point.hpp): a violation throws.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/fixed_point.hpp"
#include "quant/pow2.hpp"

namespace mfdfp::hw {

inline constexpr int kInputBits = 8;        ///< activation code width
inline constexpr int kProductBits = 16;     ///< per-synapse product wire
inline constexpr int kSynapsesPerNeuron = 16;
/// Extra fractional bits a product carries relative to the input: the
/// shifter emits x << (7+e), e in [-7, 0].
inline constexpr int kProductFracBits = 7;
/// Accumulator register width (paper: "we ensure that all intermediate
/// signals have large enough word-width"). AccumulatorRouting asserts it
/// at runtime; the deploy-time analyzer (src/analysis) proves it can
/// never fire for the deployed geometry.
inline constexpr int kAccumulatorBits = 48;

/// Per-synapse shift "multiplier": returns the product on a 16-bit wire,
/// in units of 2^-(m + 7). Throws on width violation (cannot happen for
/// valid 8-bit codes and e in [-7, 0] — enforced here).
[[nodiscard]] std::int64_t synapse_product(std::int32_t input_code,
                                           quant::Pow2Weight weight);

/// Sums up to 16 products through the widening adder tree, asserting the
/// 17/18/19/20-bit rank widths of Fig. 2a. Missing lanes are zero.
[[nodiscard]] std::int64_t adder_tree(std::span<const std::int64_t> products);

/// Accumulator & Routing block state for one neuron computation.
class AccumulatorRouting {
 public:
  /// `in_frac` = m (input radix index), `out_frac` = n (output radix index),
  /// `bias_code` is the 8-bit bias in the *output* format <8, n>.
  AccumulatorRouting(int in_frac, int out_frac, std::int32_t bias_code);

  /// Adds one 16-synapse tile sum (units 2^-(m+7)).
  void accumulate(std::int64_t tile_sum);

  /// Realigns to the output radix, adds bias, rounds, saturates to 8 bits.
  /// `apply_relu` models the NL unit in its ReLU configuration.
  [[nodiscard]] std::int32_t route(bool apply_relu = false) const;

  [[nodiscard]] std::int64_t raw() const noexcept { return acc_; }

 private:
  int in_frac_;
  int out_frac_;
  std::int32_t bias_code_;
  std::int64_t acc_ = 0;
};

/// Largest radix magnitude |frac| a deployment image may declare. The
/// converter emits radices in about [-121, 158]; the bound keeps every
/// radix difference, the routing grid m + 7 and the scales 2^+-frac far
/// from int overflow and inside the normal doubles.
inline constexpr int kMaxRadix = 256;

/// Throws std::out_of_range (prefixed with `who`) when |frac| > kMaxRadix.
void check_radix(int frac, const char* who);

/// Converts an 8-bit code between two DFP fractional lengths with
/// round-half-away + saturation (used by pool/ReLU/flatten stages when the
/// layer output format differs from its input format). Both radices must
/// pass check_radix.
[[nodiscard]] std::int32_t convert_code(std::int32_t code, int from_frac,
                                        int to_frac);

/// Reference dot product for the float baseline accelerator's neuron
/// (32-bit floating point multipliers + adder tree). Used by the
/// micro-benchmark to contrast datapath costs.
[[nodiscard]] float float_neuron(std::span<const float> inputs,
                                 std::span<const float> weights, float bias);

}  // namespace mfdfp::hw
