#include "hw/datapath.hpp"

#include <stdexcept>
#include <string>

namespace mfdfp::hw {

std::int64_t synapse_product(std::int32_t input_code,
                             quant::Pow2Weight weight) {
  check_width(input_code, kInputBits, "synapse input");
  if (weight.exponent < quant::kPow2MinExp ||
      weight.exponent > quant::kPow2MaxExp) {
    throw std::invalid_argument("synapse_product: exponent out of range");
  }
  // e in [-7, 0] -> left shift by 7 + e in [0, 7]; the product is expressed
  // in units of 2^-(m+7), so even e = -7 keeps all 8 input bits.
  const int shift = kProductFracBits + weight.exponent;
  std::int64_t product = static_cast<std::int64_t>(input_code) << shift;
  if (weight.negative) product = -product;
  return check_width(product, kProductBits, "synapse product");
}

std::int64_t adder_tree(std::span<const std::int64_t> products) {
  if (products.size() > kSynapsesPerNeuron) {
    throw std::invalid_argument("adder_tree: more than 16 products");
  }
  std::int64_t lanes[kSynapsesPerNeuron] = {};
  for (std::size_t i = 0; i < products.size(); ++i) {
    lanes[i] = check_width(products[i], kProductBits, "adder tree input");
  }
  // Four ranks: 16 -> 8 (17b) -> 4 (18b) -> 2 (19b) -> 1 (20b).
  int width = kProductBits + 1;
  for (std::size_t count = kSynapsesPerNeuron / 2; count >= 1; count /= 2) {
    for (std::size_t i = 0; i < count; ++i) {
      lanes[i] = check_width(lanes[2 * i] + lanes[2 * i + 1], width,
                             "adder tree rank");
    }
    ++width;
    if (count == 1) break;
  }
  return lanes[0];
}

AccumulatorRouting::AccumulatorRouting(int in_frac, int out_frac,
                                       std::int32_t bias_code)
    : in_frac_(in_frac), out_frac_(out_frac), bias_code_(bias_code) {
  check_width(bias_code, kInputBits, "bias code");
}

void AccumulatorRouting::accumulate(std::int64_t tile_sum) {
  // The accumulator register is provisioned wide enough that overflow is
  // impossible for any layer the compiler maps (paper: "we ensure that all
  // intermediate signals have large enough word-width"). We model it as a
  // kAccumulatorBits-wide register and assert.
  acc_ = check_width(acc_ + tile_sum, kAccumulatorBits, "accumulator");
}

std::int32_t AccumulatorRouting::route(bool apply_relu) const {
  // Align accumulator (units 2^-(m+7)) and bias (units 2^-n) on a common
  // grid, add, then realign to 2^-n with rounding + saturation.
  const int acc_frac = in_frac_ + kProductFracBits;
  const int grid = std::max(acc_frac, out_frac_);
  const std::int64_t acc_aligned =
      shift_left_checked(acc_, grid - acc_frac);
  const std::int64_t bias_aligned =
      shift_left_checked(static_cast<std::int64_t>(bias_code_),
                         grid - out_frac_);
  std::int64_t sum = acc_aligned + bias_aligned;
  if (apply_relu && sum < 0) sum = 0;
  const std::int64_t rounded = shift_round(sum, grid - out_frac_);
  return static_cast<std::int32_t>(saturate(rounded, kInputBits));
}

void check_radix(int frac, const char* who) {
  if (frac < -kMaxRadix || frac > kMaxRadix) {
    throw std::out_of_range(std::string(who) + ": radix " +
                            std::to_string(frac) + " outside [-" +
                            std::to_string(kMaxRadix) + ", " +
                            std::to_string(kMaxRadix) + "]");
  }
}

std::int32_t convert_code(std::int32_t code, int from_frac, int to_frac) {
  check_radix(from_frac, "convert_code");
  check_radix(to_frac, "convert_code");
  check_width(code, kInputBits, "convert input");
  std::int64_t value = code;
  if (to_frac >= from_frac) {
    value = shift_left_checked(value, to_frac - from_frac);
  } else {
    value = shift_round(value, from_frac - to_frac);
  }
  return static_cast<std::int32_t>(saturate(value, kInputBits));
}

float float_neuron(std::span<const float> inputs,
                   std::span<const float> weights, float bias) {
  if (inputs.size() != weights.size()) {
    throw std::invalid_argument("float_neuron: size mismatch");
  }
  float acc = bias;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    acc += inputs[i] * weights[i];
  }
  return acc;
}

}  // namespace mfdfp::hw
