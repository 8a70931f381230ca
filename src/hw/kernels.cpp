#include "hw/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace mfdfp::hw {

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

namespace {

/// Throws std::invalid_argument (prefixed with `who`) unless a c x oh x ow
/// output map fits_u32_map — before any buffer is sized for it.
void check_output_map(std::size_t c, std::size_t oh, std::size_t ow,
                      const char* who) {
  if (!fits_u32_map(c, oh, ow)) {
    throw std::invalid_argument(std::string(who) +
                                ": output map exceeds 32 bits");
  }
}

}  // namespace

ConvGeometry conv_geometry(std::size_t in_c, std::size_t out_c,
                           std::size_t kernel, std::size_t stride,
                           std::size_t pad, const Shape& in_shape,
                           const char* who) {
  if (in_shape.rank() != 4 || in_shape.c() != in_c) {
    throw std::invalid_argument(std::string(who) + ": bad input shape");
  }
  ConvGeometry g;
  g.batch = in_shape.n();
  g.ih = in_shape.h();
  g.iw = in_shape.w();
  g.oh = window_extent(g.ih, kernel, stride, pad, who);
  g.ow = window_extent(g.iw, kernel, stride, pad, who);
  check_output_map(out_c, g.oh, g.ow, who);
  g.patch = in_c * kernel * kernel;
  return g;
}

CodeTable::CodeTable(int from_frac, int to_frac, bool rectify)
    : from_frac_(from_frac), to_frac_(to_frac), rectify_(rectify) {
  // A rectified negative code converts max(0, c) = 0, whose entry (index
  // 0) is filled first.
  for (int i = 0; i < 256; ++i) {
    const auto code = static_cast<std::int8_t>(i);
    if (rectify && code < 0) {
      entries_[static_cast<std::size_t>(i)] = entries_[0];
      continue;
    }
    try {
      entries_[static_cast<std::size_t>(i)] =
          static_cast<std::int16_t>(convert(code));
    } catch (const std::overflow_error&) {
      entries_[static_cast<std::size_t>(i)] = kThrows;
      total_ = false;
    }
  }
}

std::int8_t CodeTable::convert(std::int8_t code) const {
  const std::int32_t in = rectify_ ? std::max<std::int32_t>(0, code) : code;
  return static_cast<std::int8_t>(convert_code(in, from_frac_, to_frac_));
}

void CodeTable::apply(std::span<std::int8_t> codes) const {
  if (!total_) {
    for (std::int8_t& code : codes) code = (*this)(code);
    return;
  }
  for (std::int8_t& code : codes) {
    code = static_cast<std::int8_t>(entries_[static_cast<std::uint8_t>(code)]);
  }
}

void apply_relu(CodeTensor& input, int out_frac) {
  CodeTable(input.frac, out_frac, /*rectify=*/true).apply(input.codes);
  input.frac = out_frac;
}

void apply_flatten(CodeTensor& input, int out_frac) {
  std::size_t features = 1;
  for (std::size_t axis = 1; axis < input.shape.rank(); ++axis) {
    features *= input.shape.dim(axis);
  }
  input.shape = Shape{input.shape.dim(0), features};
  if (out_frac != input.frac) {
    CodeTable(input.frac, out_frac, /*rectify=*/false).apply(input.codes);
    input.frac = out_frac;
  }
}

namespace {

/// The clipped window span of every output position on one axis.
std::vector<AxisSpan> clipped_spans(std::size_t in, std::size_t out,
                                    const QPool& pool) {
  std::vector<AxisSpan> spans(out);
  for (std::size_t o = 0; o < out; ++o) {
    spans[o] = clip_window(o, in, pool.window, pool.stride, pool.pad);
  }
  return spans;
}

}  // namespace

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
  check_output_map(s.c(), oh, ow, "pool_forward");
  check_radix(input.frac, "pool_forward");
  check_radix(pool.out_frac, "pool_forward");

  out.shape = Shape{s.n(), s.c(), oh, ow};
  out.frac = pool.out_frac;
  out.codes.resize(out.shape.size());

  const std::vector<AxisSpan> rows = clipped_spans(ih, oh, pool);
  const std::vector<AxisSpan> cols = clipped_spans(iw, ow, pool);
  const std::int8_t* plane = input.codes.data();
  std::int8_t* dst = out.codes.data();
  if (pool.is_max) {
    // Max over the in-bounds taps only (a pad is absent, not code 0):
    // first down each column of the window's rows, then across.
    const CodeTable table(input.frac, pool.out_frac, /*rectify=*/false);
    std::vector<std::int8_t> column_max(iw);
    for (std::size_t p = 0; p < s.n() * s.c(); ++p, plane += ih * iw) {
      for (const AxisSpan& ry : rows) {
        std::fill(column_max.begin(), column_max.end(), INT8_MIN);
        for (std::size_t iy = ry.lo; iy < ry.hi; ++iy) {
          const std::int8_t* row = plane + iy * iw;
          for (std::size_t ix = 0; ix < iw; ++ix) {
            column_max[ix] = std::max(column_max[ix], row[ix]);
          }
        }
        for (const AxisSpan& rx : cols) {
          std::int8_t best = 0;  // a fully padded window
          if (ry.lo < ry.hi && rx.lo < rx.hi) {
            best = *std::max_element(column_max.begin() + rx.lo,
                                     column_max.begin() + rx.hi);
          }
          *dst++ = table(best);
        }
      }
    }
    return;
  }
  // Mirror the float model exactly: float mean of decoded taps (exact for
  // window^2 * 127 < 2^24), then re-encode.
  const double in_scale = std::ldexp(1.0, -input.frac);
  const double out_scale = std::ldexp(1.0, pool.out_frac);
  const float inv_area =
      1.0f / static_cast<float>(pool.window * pool.window);
  std::vector<std::int64_t> column_sum(iw);
  for (std::size_t p = 0; p < s.n() * s.c(); ++p, plane += ih * iw) {
    for (const AxisSpan& ry : rows) {
      std::fill(column_sum.begin(), column_sum.end(), 0);
      for (std::size_t iy = ry.lo; iy < ry.hi; ++iy) {
        const std::int8_t* row = plane + iy * iw;
        for (std::size_t ix = 0; ix < iw; ++ix) column_sum[ix] += row[ix];
      }
      for (const AxisSpan& rx : cols) {
        std::int64_t sum = 0;
        for (std::size_t ix = rx.lo; ix < rx.hi; ++ix) sum += column_sum[ix];
        *dst++ = avg_pool_code(sum, in_scale, inv_area, out_scale);
      }
    }
  }
}

SumRouter::SumRouter(int in_frac, int out_frac)
    : in_frac_(in_frac), out_frac_(out_frac) {
  check_radix(in_frac, "SumRouter");
  check_radix(out_frac, "SumRouter");
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
