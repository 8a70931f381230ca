#include "quant/dfp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mfdfp::quant {

double DfpFormat::step() const noexcept { return std::ldexp(1.0, -frac); }

double DfpFormat::min_value() const noexcept {
  return static_cast<double>(min_code()) * step();
}

double DfpFormat::max_value() const noexcept {
  return static_cast<double>(max_code()) * step();
}

std::int32_t DfpFormat::encode(float value) const noexcept {
  return encode_scaled(static_cast<double>(value) / step());
}

float DfpFormat::decode(std::int32_t code) const noexcept {
  return static_cast<float>(static_cast<double>(code) * step());
}

float DfpFormat::quantize(float value) const noexcept {
  return decode(encode(value));
}

std::string DfpFormat::to_string() const {
  return "<" + std::to_string(bits) + "," + std::to_string(frac) + ">";
}

DfpFormat choose_format(float max_abs, int bits) {
  if (bits < 2 || bits > 31) {
    throw std::invalid_argument("choose_format: bits out of range");
  }
  DfpFormat format;
  format.bits = bits;
  if (!(max_abs > 0.0f) || !std::isfinite(max_abs)) {
    format.frac = bits - 1;
    return format;
  }
  // Minimal integer bits il (incl. sign) with 2^(il-1) >= max_abs.
  const int il = static_cast<int>(
                     std::ceil(std::log2(static_cast<double>(max_abs)))) +
                 1;
  format.frac = bits - il;
  return format;
}

void quantize_tensor(const DfpFormat& format, const tensor::Tensor& src,
                     tensor::Tensor& dst) {
  if (dst.shape() != src.shape()) {
    throw std::invalid_argument("quantize_tensor: shape mismatch");
  }
  const auto in = src.data();
  auto out = dst.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = format.quantize(in[i]);
  }
}

float quantization_error(const DfpFormat& format, const tensor::Tensor& src) {
  float worst = 0.0f;
  for (float v : src.data()) {
    worst = std::max(worst, std::fabs(format.quantize(v) - v));
  }
  return worst;
}

}  // namespace mfdfp::quant
