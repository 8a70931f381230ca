// Deployment artifact: the quantized network as the accelerator sees it.
//
// Extracted from a Network with MF-DFP transforms installed plus its
// QuantSpec. Weights are stored as 4-bit power-of-two codes, biases as 8-bit
// DFP codes in the layer's output format, and each layer carries its radix
// indices (the <m, n> control inputs of the Accumulator & Routing block).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "nn/network.hpp"
#include "quant/quantizer.hpp"

namespace mfdfp::hw {

/// Conv layer as mapped onto the accelerator: kernel matrix rows are the
/// synapse streams ({out_c, in_c*k*k} nibble-packed).
struct QConv {
  std::size_t in_c = 0, out_c = 0;
  std::size_t kernel = 0, stride = 1, pad = 0;
  std::vector<std::uint8_t> packed_weights;  ///< nibbles, row-major
  std::vector<std::int8_t> bias_codes;       ///< format <8, out_frac>
  int out_frac = 0;                          ///< n (output radix index)
};

struct QFullyConnected {
  std::size_t in_features = 0, out_features = 0;
  std::vector<std::uint8_t> packed_weights;
  std::vector<std::int8_t> bias_codes;
  int out_frac = 0;
};

struct QPool {
  bool is_max = true;
  std::size_t window = 2, stride = 2, pad = 0;
  int out_frac = 0;
};

struct QRelu {
  int out_frac = 0;
};

struct QFlatten {
  int out_frac = 0;
};

using QLayer = std::variant<QConv, QFullyConnected, QPool, QRelu, QFlatten>;

/// The full per-network deployment image.
struct QNetDesc {
  std::string name;
  int input_frac = 0;  ///< m of the first layer's inputs
  std::vector<QLayer> layers;

  /// Total parameter bytes in the packed representation (Table 3).
  [[nodiscard]] std::size_t parameter_bytes() const;
};

/// check_radix (hw/datapath.hpp) on the image's input_frac and every
/// layer's out_frac: throws std::out_of_range, prefixed with `who`, on the
/// first radix outside [-kMaxRadix, kMaxRadix]. Every entry that loads or
/// executes a QNetDesc calls it first.
void check_radices(const QNetDesc& desc, const char* who);

/// Extracts the deployment image from a quantized network. The network must
/// have exactly spec.layer_output.size() layers; weighted layers are
/// re-quantized deterministically from their float masters (identical to
/// what the installed transforms produce in deterministic mode).
[[nodiscard]] QNetDesc extract_qnet(const nn::Network& network,
                                    const quant::QuantSpec& spec,
                                    std::string name = "qnet");

}  // namespace mfdfp::hw
