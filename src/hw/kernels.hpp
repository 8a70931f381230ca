// Shared code-domain layer kernels: the single implementation of every
// rounding the reference executor and the deploy-time compiler both depend
// on.
//
// The repo's core invariant — a compiled plan == AcceleratorExecutor::run()
// == the fake-quantized software model, bit for bit — holds because there
// is exactly one implementation of each lossy stage (ReLU refrac, pool
// reduction, the Accumulator & Routing realignment). The reference executor
// (hw/executor.cpp) and the compiled-plan executor
// (compile/plan_executor.cpp) call the very same functions, so a
// CompiledPlan matches run() by construction, not by re-implementation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "hw/datapath.hpp"
#include "hw/executor.hpp"
#include "hw/qnet.hpp"
#include "quant/dfp.hpp"

namespace mfdfp::hw {

/// Conv layer geometry of the reference executor (hw/executor.cpp).
struct ConvGeometry {
  std::size_t batch = 0, ih = 0, iw = 0, oh = 0, ow = 0, patch = 0;
};

/// Output extent (in + 2*pad - window) / stride + 1 of a window sliding
/// over one padded axis — the one extent helper of the reference executor,
/// the compiler and the cycle model. Throws std::invalid_argument (prefixed
/// with `who`) on a zero stride or window, a padded axis in + 2*pad past
/// UINT32_MAX, or a window larger than the padded input — the geometries
/// that would divide by zero or wrap size_t.
[[nodiscard]] std::size_t window_extent(std::size_t in, std::size_t window,
                                        std::size_t stride, std::size_t pad,
                                        const char* who);

/// Whether a c x h x w map holds at most UINT32_MAX codes, so 32-bit
/// offsets address all of it — checked without computing c * h * w. h and
/// w must each lie in [1, UINT32_MAX], as every window_extent result and
/// every padded axis it accepts do, so h * w cannot wrap or be 0. The one
/// bound on a padded conv sample and on every layer's output map.
[[nodiscard]] constexpr bool fits_u32_map(std::size_t c, std::size_t h,
                                          std::size_t w) noexcept {
  return h * w <= UINT32_MAX && c <= UINT32_MAX / (h * w);
}

/// Validates `in_shape` against the conv parameters and derives the output
/// geometry. Throws std::invalid_argument (prefixed with `who`) on a rank or
/// channel mismatch, a zero stride or kernel, a kernel larger than the
/// padded input, or an out_c x oh x ow output map that fails fits_u32_map.
[[nodiscard]] ConvGeometry conv_geometry(std::size_t in_c, std::size_t out_c,
                                         std::size_t kernel,
                                         std::size_t stride, std::size_t pad,
                                         const tensor::Shape& in_shape,
                                         const char* who);

/// The half-open input range [lo, hi) one window covers on one axis,
/// clipped to the input: the taps no pad covers. A fully padded window has
/// lo == hi.
struct AxisSpan {
  std::size_t lo = 0, hi = 0;
};

/// The clipped span of output `o`'s window on an axis of `in` inputs.
/// `o` must be below window_extent(in, window, stride, pad), which keeps
/// o * stride + window within the 32-bit padded axis.
[[nodiscard]] constexpr AxisSpan clip_window(std::size_t o, std::size_t in,
                                             std::size_t window,
                                             std::size_t stride,
                                             std::size_t pad) noexcept {
  const std::size_t start = o * stride;
  const std::size_t end = start + window;
  return {std::min(in, start > pad ? start - pad : 0),
          std::min(in, end > pad ? end - pad : 0)};
}

/// The 256-entry table of one code conversion: the entry of code c is
/// convert_code(rectify ? max(0, c) : c, from_frac, to_frac). It is filled
/// by calling convert_code on every int8 code (a rectified negative code
/// shares the entry of code 0), so it is exact by construction. A code whose conversion throws (a left shift that
/// overflows the int64 carrier) holds a marker instead; converting that
/// code re-runs convert_code, so a kernel throws at the same element a
/// per-element convert_code loop would. Built per kernel call (~1 us), not
/// stored in the plan.
class CodeTable {
 public:
  /// Throws std::out_of_range (from convert_code) when a radix fails
  /// check_radix.
  CodeTable(int from_frac, int to_frac, bool rectify);

  [[nodiscard]] std::int8_t operator()(std::int8_t code) const {
    const std::int16_t entry = entries_[static_cast<std::uint8_t>(code)];
    if (entry == kThrows) [[unlikely]] return convert(code);
    return static_cast<std::int8_t>(entry);
  }

  /// Converts every code in place, in order.
  void apply(std::span<std::int8_t> codes) const;

 private:
  static constexpr std::int16_t kThrows = INT16_MIN;

  [[nodiscard]] std::int8_t convert(std::int8_t code) const;

  int from_frac_;
  int to_frac_;
  bool rectify_;
  bool total_ = true;  ///< no entry holds the marker
  std::array<std::int16_t, 256> entries_{};  ///< indexed by uint8_t(code)
};

/// The avg-pool output code of one window with tap-code sum `sum`: the
/// float mean of the decoded taps, float(sum * 2^-in_frac) * inv_area, then
/// DfpFormat::encode at out_frac — with the scales in_scale = 2^-in_frac
/// and out_scale = 2^out_frac hoisted out of the window loop. Both scales
/// are exact powers of two (check_radix keeps |frac| <= 256), so the
/// products equal the per-output ldexp(sum, -in_frac) and encode()'s
/// value / step(), and encode_scaled rounds the result exactly as encode()
/// does. The one expression the kernel runs and the analyzer's interval
/// proof evaluates.
[[nodiscard]] inline std::int8_t avg_pool_code(std::int64_t sum,
                                               double in_scale,
                                               float inv_area,
                                               double out_scale) noexcept {
  const float value =
      static_cast<float>(static_cast<double>(sum) * in_scale) * inv_area;
  constexpr quant::DfpFormat kCode{kInputBits, 0};
  return static_cast<std::int8_t>(
      kCode.encode_scaled(static_cast<double>(value) * out_scale));
}

/// In-place ReLU + refrac stage (rectify at the input radix, then
/// convert_code into `out_frac`), through one CodeTable.
void apply_relu(CodeTensor& input, int out_frac);

/// In-place flatten (+ refrac through one CodeTable when the output format
/// differs).
void apply_flatten(CodeTensor& input, int out_frac);

/// Pool layer forward over the clipped windows (max: convert_code of the
/// max over the in-bounds taps, code 0 for a fully padded window; avg:
/// avg_pool_code of the in-bounds tap sum — mirrors the float model
/// exactly). `out`'s shape/frac are set and its codes resized reusing
/// capacity. Throws std::invalid_argument on a rank mismatch, a zero stride
/// or window, a window larger than the padded input, or an output map per
/// sample that fails fits_u32_map, and std::out_of_range when a radix fails
/// check_radix.
void pool_forward(const QPool& pool, const CodeTensor& input, CodeTensor& out);

/// The Accumulator & Routing tail of one conv or FC step: add the bias,
/// realign the dot-product sum (units 2^-(m+7)) to the output radix n,
/// round half away from zero, saturate to 8 bits. Built once per step, so
/// the realignment shifts and the proof that they are safe are fixed
/// before the first output, like the block's wiring in silicon.
///
/// AccumulatorRouting aligns the sum and the bias on the grid
/// max(m+7, n): the sum shifts left by la = grid-(m+7) and the bias by
/// lb = grid-n, then the total shifts right by lb. An int32 sum has
/// |sum| <= 2^31 and an 8-bit bias |bias| <= 2^7, so when la <= 30 and
/// lb <= 54 both aligned terms stay within 2^61 and their total within
/// 2^62: the 48-bit accumulator check and the int64 carrier checks of
/// AccumulatorRouting provably cannot fire, and plain shifts give the same
/// code. Other (m, n) pairs, and int64 sums, route through the checked
/// AccumulatorRouting itself — the checks move from each output to the
/// step; none is removed.
class SumRouter {
 public:
  SumRouter(int in_frac, int out_frac);

  /// Routes an int32 dot-product sum with the output's bias code.
  [[nodiscard]] std::int8_t operator()(std::int32_t sum,
                                       std::int8_t bias_code) const {
    if (!unchecked_) return checked(sum, bias_code);
    const std::int64_t total =
        (static_cast<std::int64_t>(sum) << la_) +
        (static_cast<std::int64_t>(bias_code) << lb_);
    return static_cast<std::int8_t>(
        saturate(shift_round(total, lb_), kInputBits));
  }

  /// Routes an int64 sum (patches too long for the int32 dot) through the
  /// checked AccumulatorRouting.
  [[nodiscard]] std::int8_t operator()(std::int64_t sum,
                                       std::int8_t bias_code) const {
    return checked(sum, bias_code);
  }

  /// True when int32 sums route with plain shifts (see the class comment).
  [[nodiscard]] bool unchecked() const noexcept { return unchecked_; }

 private:
  [[nodiscard]] std::int8_t checked(std::int64_t sum,
                                    std::int8_t bias_code) const;

  int in_frac_;
  int out_frac_;
  int la_;
  int lb_;
  bool unchecked_;
};

}  // namespace mfdfp::hw
