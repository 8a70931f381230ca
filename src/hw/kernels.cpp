#include "hw/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace mfdfp::hw {

using quant::DfpFormat;
using tensor::Shape;

std::size_t window_extent(std::size_t in, std::size_t window,
                          std::size_t stride, std::size_t pad,
                          const char* who) {
  if (stride == 0 || window == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": zero stride or window");
  }
  // in + 2*pad <= UINT32_MAX, checked without computing it: the sum can
  // neither wrap size_t nor outgrow 32-bit tap offsets, and every window
  // coordinate below it fits a signed ptrdiff_t.
  if (in > UINT32_MAX || pad > (UINT32_MAX - in) / 2) {
    throw std::invalid_argument(std::string(who) +
                                ": padded input exceeds 32 bits");
  }
  if (in + 2 * pad < window) {
    throw std::invalid_argument(std::string(who) +
                                ": window exceeds padded input");
  }
  return (in + 2 * pad - window) / stride + 1;
}

ConvGeometry conv_geometry(std::size_t in_c, std::size_t kernel,
                           std::size_t stride, std::size_t pad,
                           const Shape& in_shape, const char* who) {
  if (in_shape.rank() != 4 || in_shape.c() != in_c) {
    throw std::invalid_argument(std::string(who) + ": bad input shape");
  }
  ConvGeometry g;
  g.batch = in_shape.n();
  g.ih = in_shape.h();
  g.iw = in_shape.w();
  g.oh = window_extent(g.ih, kernel, stride, pad, who);
  g.ow = window_extent(g.iw, kernel, stride, pad, who);
  g.patch = in_c * kernel * kernel;
  return g;
}

void apply_relu(CodeTensor& input, int out_frac) {
  for (std::int8_t& code : input.codes) {
    const std::int32_t rectified = std::max<std::int32_t>(0, code);
    code = static_cast<std::int8_t>(
        convert_code(rectified, input.frac, out_frac));
  }
  input.frac = out_frac;
}

void apply_flatten(CodeTensor& input, int out_frac) {
  std::size_t features = 1;
  for (std::size_t axis = 1; axis < input.shape.rank(); ++axis) {
    features *= input.shape.dim(axis);
  }
  input.shape = Shape{input.shape.dim(0), features};
  if (out_frac != input.frac) {
    for (std::int8_t& code : input.codes) {
      code = static_cast<std::int8_t>(
          convert_code(code, input.frac, out_frac));
    }
    input.frac = out_frac;
  }
}

void pool_forward(const QPool& pool, const CodeTensor& input,
                  CodeTensor& out) {
  const Shape& s = input.shape;
  if (s.rank() != 4) {
    throw std::invalid_argument("pool_forward: rank-4 required");
  }
  const std::size_t ih = s.h(), iw = s.w();
  const std::size_t oh =
      window_extent(ih, pool.window, pool.stride, pool.pad, "pool_forward");
  const std::size_t ow =
      window_extent(iw, pool.window, pool.stride, pool.pad, "pool_forward");

  out.shape = Shape{s.n(), s.c(), oh, ow};
  out.frac = pool.out_frac;
  out.codes.resize(out.shape.size());

  const DfpFormat out_format{kInputBits, pool.out_frac};
  const float inv_area =
      1.0f / static_cast<float>(pool.window * pool.window);
  std::size_t out_i = 0;
  for (std::size_t n = 0; n < s.n(); ++n) {
    for (std::size_t c = 0; c < s.c(); ++c) {
      const std::size_t plane = (n * s.c() + c) * ih * iw;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          bool found = false;
          std::int32_t best = 0;
          std::int64_t sum = 0;
          for (std::size_t ky = 0; ky < pool.window; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * pool.stride + ky) -
                static_cast<std::ptrdiff_t>(pool.pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
            for (std::size_t kx = 0; kx < pool.window; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * pool.stride + kx) -
                  static_cast<std::ptrdiff_t>(pool.pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
              const std::int32_t code =
                  input.codes[plane + static_cast<std::size_t>(iy) * iw +
                              static_cast<std::size_t>(ix)];
              if (!found || code > best) best = code;
              found = true;
              sum += code;
            }
          }
          if (pool.is_max) {
            out.codes[out_i] = static_cast<std::int8_t>(
                convert_code(found ? best : 0, input.frac, pool.out_frac));
          } else {
            // Mirror the float model exactly: float mean of decoded taps
            // (exact for window^2 * 127 < 2^24), then re-encode.
            const float value =
                static_cast<float>(std::ldexp(static_cast<double>(sum),
                                              -input.frac)) *
                inv_area;
            out.codes[out_i] =
                static_cast<std::int8_t>(out_format.encode(value));
          }
        }
      }
    }
  }
}

SumRouter::SumRouter(int in_frac, int out_frac)
    : in_frac_(in_frac), out_frac_(out_frac) {
  const int acc_frac = in_frac + kProductFracBits;
  const int grid = std::max(acc_frac, out_frac);
  la_ = grid - acc_frac;
  lb_ = grid - out_frac;
  unchecked_ = la_ <= 30 && lb_ <= 54;
}

std::int8_t SumRouter::checked(std::int64_t sum,
                               std::int8_t bias_code) const {
  AccumulatorRouting acc(in_frac_, out_frac_, bias_code);
  acc.accumulate(sum);
  return static_cast<std::int8_t>(acc.route());
}

}  // namespace mfdfp::hw
