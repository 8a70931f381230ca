#include "hw/executor.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "hw/kernels.hpp"

namespace mfdfp::hw {

using quant::DfpFormat;
using quant::Pow2Weight;
using tensor::Shape;
using tensor::Tensor;

Tensor CodeTensor::decode() const {
  const DfpFormat format{kInputBits, frac};
  Tensor out{shape};
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out[i] = format.decode(codes[i]);
  }
  return out;
}

void CodeTensor::encode_into(const Tensor& values, int frac, CodeTensor& out) {
  const DfpFormat format{kInputBits, frac};
  out.shape = values.shape();
  out.frac = frac;
  out.codes.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.codes[i] = static_cast<std::int8_t>(format.encode(values[i]));
  }
}

CodeTensor CodeTensor::encode(const Tensor& values, int frac) {
  CodeTensor out;
  encode_into(values, frac, out);
  return out;
}

AcceleratorExecutor::AcceleratorExecutor(QNetDesc desc)
    : desc_(std::move(desc)) {
  decoded_weights_.resize(desc_.layers.size());
  for (std::size_t i = 0; i < desc_.layers.size(); ++i) {
    const std::vector<std::uint8_t>* packed = nullptr;
    std::size_t count = 0;
    if (const auto* conv = std::get_if<QConv>(&desc_.layers[i])) {
      packed = &conv->packed_weights;
      count = conv->out_c * conv->in_c * conv->kernel * conv->kernel;
    } else if (const auto* fc =
                   std::get_if<QFullyConnected>(&desc_.layers[i])) {
      packed = &fc->packed_weights;
      count = fc->out_features * fc->in_features;
    }
    if (packed == nullptr) continue;
    if (packed->size() < (count + 1) / 2) {
      throw std::invalid_argument("AcceleratorExecutor: short weight stream");
    }
    auto& decoded = decoded_weights_[i];
    decoded.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint8_t byte = (*packed)[k / 2];
      const std::uint8_t nibble =
          (k % 2 == 0) ? (byte & 0xF) : static_cast<std::uint8_t>(byte >> 4);
      decoded[k] = quant::decode_nibble(nibble);
    }
  }
}

namespace {

/// Runs one neuron over `count` (input code, weight) pairs in 16-synapse
/// tiles through the shift datapath; returns the routed 8-bit output code.
std::int32_t neuron_dot(std::span<const std::int8_t> input_codes,
                        std::span<const std::size_t> input_index,
                        std::span<const Pow2Weight> weights, int in_frac,
                        int out_frac, std::int32_t bias_code) {
  AccumulatorRouting acc(in_frac, out_frac, bias_code);
  std::int64_t products[kSynapsesPerNeuron];
  const std::size_t count = weights.size();
  for (std::size_t tile = 0; tile < count; tile += kSynapsesPerNeuron) {
    const std::size_t lanes =
        std::min<std::size_t>(kSynapsesPerNeuron, count - tile);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t k = tile + lane;
      const std::int32_t x =
          input_index.empty()
              ? input_codes[k]
              : (input_index[k] == SIZE_MAX
                     ? 0
                     : input_codes[input_index[k]]);
      products[lane] = synapse_product(x, weights[k]);
    }
    acc.accumulate(adder_tree({products, lanes}));
  }
  return acc.route();
}

}  // namespace

void AcceleratorExecutor::run_conv(const QConv& conv,
                                   std::span<const Pow2Weight> weights,
                                   const CodeTensor& input, CodeTensor& out,
                                   std::vector<std::size_t>& index) const {
  const auto [batch, ih, iw, oh, ow, patch] = conv_geometry(
      conv.in_c, conv.kernel, conv.stride, conv.pad, input.shape, "run_conv");
  const std::size_t k = conv.kernel;

  out.shape = Shape{batch, conv.out_c, oh, ow};
  out.frac = conv.out_frac;
  out.codes.resize(out.shape.size());

  // Patch gather indices (SIZE_MAX marks a padded tap -> zero input).
  index.resize(patch);
  std::size_t out_i = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t image_base = n * conv.in_c * ih * iw;
    for (std::size_t oc = 0; oc < conv.out_c; ++oc) {
      const std::span<const Pow2Weight> row{weights.data() + oc * patch,
                                            patch};
      const std::int32_t bias = conv.bias_codes[oc];
      // Recompute gather indices per output pixel (oc-invariant, but the
      // loop order keeps weight rows hot; index build is cheap).
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          std::size_t p = 0;
          for (std::size_t c = 0; c < conv.in_c; ++c) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * conv.stride + ky) -
                  static_cast<std::ptrdiff_t>(conv.pad);
              for (std::size_t kx = 0; kx < k; ++kx, ++p) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * conv.stride + kx) -
                    static_cast<std::ptrdiff_t>(conv.pad);
                const bool inside =
                    iy >= 0 && iy < static_cast<std::ptrdiff_t>(ih) &&
                    ix >= 0 && ix < static_cast<std::ptrdiff_t>(iw);
                index[p] = inside
                               ? image_base + (c * ih +
                                               static_cast<std::size_t>(iy)) *
                                                  iw +
                                     static_cast<std::size_t>(ix)
                               : SIZE_MAX;
              }
            }
          }
          out.codes[out_i] = static_cast<std::int8_t>(
              neuron_dot(input.codes, index, row, input.frac, conv.out_frac,
                         bias));
        }
      }
    }
  }
}

void AcceleratorExecutor::run_fc(const QFullyConnected& fc,
                                 std::span<const Pow2Weight> weights,
                                 const CodeTensor& input,
                                 CodeTensor& out) const {
  if (input.shape.rank() != 2 || input.shape.dim(1) != fc.in_features) {
    throw std::invalid_argument("run_fc: bad input shape");
  }
  const std::size_t batch = input.shape.dim(0);
  out.shape = Shape{batch, fc.out_features};
  out.frac = fc.out_frac;
  out.codes.resize(out.shape.size());
  for (std::size_t n = 0; n < batch; ++n) {
    const std::span<const std::int8_t> row{
        input.codes.data() + n * fc.in_features, fc.in_features};
    for (std::size_t o = 0; o < fc.out_features; ++o) {
      const std::span<const Pow2Weight> wrow{
          weights.data() + o * fc.in_features, fc.in_features};
      out.codes[n * fc.out_features + o] = static_cast<std::int8_t>(
          neuron_dot(row, {}, wrow, input.frac, fc.out_frac,
                     fc.bias_codes[o]));
    }
  }
}

CodeTensor AcceleratorExecutor::run_codes(CodeTensor input) const {
  // Reference path: every conv/FC neuron goes through the width-asserted
  // shift datapath (synapse_product / adder_tree), exactly as the NPU
  // schedules it. Every compiled plan must match this bit for bit.
  CodeTensor out;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < desc_.layers.size(); ++i) {
    const QLayer& layer = desc_.layers[i];
    if (const auto* conv = std::get_if<QConv>(&layer)) {
      run_conv(*conv, decoded_weights_[i], input, out, index);
      std::swap(input, out);
    } else if (const auto* fc = std::get_if<QFullyConnected>(&layer)) {
      run_fc(*fc, decoded_weights_[i], input, out);
      std::swap(input, out);
    } else if (const auto* pool = std::get_if<QPool>(&layer)) {
      pool_forward(*pool, input, out);
      std::swap(input, out);
    } else if (const auto* relu = std::get_if<QRelu>(&layer)) {
      apply_relu(input, relu->out_frac);
    } else if (const auto* flat = std::get_if<QFlatten>(&layer)) {
      apply_flatten(input, flat->out_frac);
    }
  }
  return input;
}

Tensor AcceleratorExecutor::run(const Tensor& images) const {
  const CodeTensor input = CodeTensor::encode(images, desc_.input_frac);
  return run_codes(input).decode();
}

Tensor run_ensemble(std::span<const AcceleratorExecutor* const> members,
                    const Tensor& images) {
  if (members.empty()) {
    throw std::invalid_argument("run_ensemble: no members");
  }
  Tensor sum = members.front()->run(images);
  for (std::size_t m = 1; m < members.size(); ++m) {
    sum.add(members[m]->run(images));
  }
  sum.scale(1.0f / static_cast<float>(members.size()));
  return sum;
}

}  // namespace mfdfp::hw
