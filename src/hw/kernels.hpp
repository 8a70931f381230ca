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
#include <span>
#include <vector>

#include "hw/datapath.hpp"
#include "hw/executor.hpp"
#include "hw/qnet.hpp"

namespace mfdfp::hw {

/// Layer geometry shared by the reference and compiled conv kernels.
struct ConvGeometry {
  std::size_t batch = 0, ih = 0, iw = 0, oh = 0, ow = 0, patch = 0;
};

/// Validates `in_shape` against the conv parameters and derives the output
/// geometry. Throws std::invalid_argument (prefixed with `who`) on a rank or
/// channel mismatch, a zero stride or kernel, or a kernel larger than the
/// padded input.
[[nodiscard]] ConvGeometry conv_geometry(std::size_t in_c, std::size_t kernel,
                                         std::size_t stride, std::size_t pad,
                                         const tensor::Shape& in_shape,
                                         const char* who);

/// Fills `index` with the per-output-pixel patch gather table, oh*ow rows of
/// `in_c*kernel*kernel` taps each, relative to a sample's image base (one
/// table serves every sample of a batch and every output channel). SIZE_MAX
/// marks a padded tap (reads as zero input).
void build_conv_gather(std::size_t in_c, std::size_t ih, std::size_t iw,
                       std::size_t kernel, std::size_t stride, std::size_t pad,
                       std::size_t oh, std::size_t ow,
                       std::vector<std::size_t>& index);

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
