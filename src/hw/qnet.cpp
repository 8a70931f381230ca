#include "hw/qnet.hpp"

#include <stdexcept>

#include "hw/datapath.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/fully_connected.hpp"
#include "nn/pooling.hpp"

namespace mfdfp::hw {

std::size_t QNetDesc::parameter_bytes() const {
  std::size_t total = 0;
  for (const QLayer& layer : layers) {
    if (const auto* conv = std::get_if<QConv>(&layer)) {
      total += conv->packed_weights.size() + conv->bias_codes.size();
    } else if (const auto* fc = std::get_if<QFullyConnected>(&layer)) {
      total += fc->packed_weights.size() + fc->bias_codes.size();
    }
  }
  return total;
}

void check_radices(const QNetDesc& desc, const char* who) {
  check_radix(desc.input_frac, who);
  for (const QLayer& layer : desc.layers) {
    check_radix(std::visit([](const auto& l) { return l.out_frac; }, layer),
                who);
  }
}

namespace {

std::vector<std::int8_t> encode_bias(const tensor::Tensor& bias,
                                     const quant::DfpFormat& format) {
  std::vector<std::int8_t> codes(bias.size());
  for (std::size_t i = 0; i < bias.size(); ++i) {
    codes[i] = static_cast<std::int8_t>(format.encode(bias[i]));
  }
  return codes;
}

}  // namespace

QNetDesc extract_qnet(const nn::Network& network,
                      const quant::QuantSpec& spec, std::string name) {
  if (spec.layer_output.size() != network.layer_count()) {
    throw std::invalid_argument("extract_qnet: spec arity mismatch");
  }
  QNetDesc desc;
  desc.name = std::move(name);
  desc.input_frac = spec.input.frac;

  for (std::size_t i = 0; i < network.layer_count(); ++i) {
    const nn::Layer& layer = network.layer(i);
    const quant::DfpFormat out_format = spec.layer_output[i];
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(&layer)) {
      QConv q;
      q.in_c = conv->config().in_channels;
      q.out_c = conv->config().out_channels;
      q.kernel = conv->config().kernel;
      q.stride = conv->config().stride;
      q.pad = conv->config().pad;
      q.packed_weights = quant::pack_pow2(conv->master_weights());
      q.bias_codes = encode_bias(conv->master_bias(), out_format);
      q.out_frac = out_format.frac;
      desc.layers.emplace_back(std::move(q));
    } else if (const auto* fc =
                   dynamic_cast<const nn::FullyConnected*>(&layer)) {
      QFullyConnected q;
      q.in_features = fc->config().in_features;
      q.out_features = fc->config().out_features;
      q.packed_weights = quant::pack_pow2(fc->master_weights());
      q.bias_codes = encode_bias(fc->master_bias(), out_format);
      q.out_frac = out_format.frac;
      desc.layers.emplace_back(std::move(q));
    } else if (const auto* maxpool =
                   dynamic_cast<const nn::MaxPool2D*>(&layer)) {
      desc.layers.emplace_back(QPool{true, maxpool->config().window,
                                     maxpool->config().stride,
                                     maxpool->config().pad, out_format.frac});
    } else if (const auto* avgpool =
                   dynamic_cast<const nn::AvgPool2D*>(&layer)) {
      desc.layers.emplace_back(QPool{false, avgpool->config().window,
                                     avgpool->config().stride,
                                     avgpool->config().pad, out_format.frac});
    } else if (dynamic_cast<const nn::ReLU*>(&layer) != nullptr) {
      desc.layers.emplace_back(QRelu{out_format.frac});
    } else if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
      desc.layers.emplace_back(QFlatten{out_format.frac});
    } else {
      throw std::invalid_argument(
          std::string("extract_qnet: unsupported layer kind '") +
          layer.kind() + "'");
    }
  }
  return desc;
}

}  // namespace mfdfp::hw
