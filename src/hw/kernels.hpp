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

#include <cstdint>

#include "hw/datapath.hpp"
#include "hw/executor.hpp"
#include "hw/qnet.hpp"

namespace mfdfp::hw {

/// Conv layer geometry of the reference executor (hw/executor.cpp).
struct ConvGeometry {
  std::size_t batch = 0, ih = 0, iw = 0, oh = 0, ow = 0, patch = 0;
};

/// Output extent (in + 2*pad - window) / stride + 1 of a window sliding
/// over one padded axis. Throws std::invalid_argument (prefixed with `who`)
/// on a zero stride or window or a window larger than the padded input —
/// the geometries that would divide by zero or wrap size_t.
[[nodiscard]] std::size_t window_extent(std::size_t in, std::size_t window,
                                        std::size_t stride, std::size_t pad,
                                        const char* who);

/// Validates `in_shape` against the conv parameters and derives the output
/// geometry. Throws std::invalid_argument (prefixed with `who`) on a rank or
/// channel mismatch, a zero stride or kernel, or a kernel larger than the
/// padded input.
[[nodiscard]] ConvGeometry conv_geometry(std::size_t in_c, std::size_t kernel,
                                         std::size_t stride, std::size_t pad,
                                         const tensor::Shape& in_shape,
                                         const char* who);

/// In-place ReLU + refrac stage (rectify at the input radix, then
/// convert_code into `out_frac`).
void apply_relu(CodeTensor& input, int out_frac);

/// In-place flatten (+ refrac when the output format differs).
void apply_flatten(CodeTensor& input, int out_frac);

/// Pool layer forward (max: convert_code of the window max; avg: float mean
/// of the decoded taps re-encoded — mirrors the float model exactly).
/// `out`'s shape/frac are set and its codes resized reusing capacity.
/// Throws std::invalid_argument on a rank mismatch, a zero stride or window,
/// or a window larger than the padded input.
void pool_forward(const QPool& pool, const CodeTensor& input, CodeTensor& out);

/// Routes an already-accumulated integer dot-product sum (units 2^-(m+7))
/// through the Accumulator & Routing block: add bias, realign m -> n,
/// round-half-away, saturate to 8 bits. The tail of every compiled conv and
/// FC kernel.
[[nodiscard]] std::int32_t route_sum(std::int64_t sum, int in_frac,
                                     int out_frac, std::int32_t bias_code);

}  // namespace mfdfp::hw
