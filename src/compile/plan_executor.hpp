// Executes a CompiledPlan — the only batched execution path — bit-identical
// to the reference AcceleratorExecutor::run() (and therefore to the
// fake-quantized software model) by construction: every lossy stage calls
// the shared hw/kernels.hpp implementations, and the integer dot products
// are exact under any association, so reading each window of a zero-padded,
// channels-last sample as the plan's contiguous runs into an im2col patch
// buffer only reorders exact arithmetic.
//
// Conv and FC steps run one portable register-blocked tile: 4 output pixels
// (conv) or batch rows (FC) x 2 output channels, int16 codes times int16
// weights into int32 accumulators, written so the compiler's vectorizer
// emits the widening int16 multiply-add. Each sum then goes through the
// step's hw::SumRouter, whose realignment shifts are fixed when the step
// starts.
//
// Thread-safety: callers are concurrent as long as each brings its own
// ExecScratch; the plan itself is immutable and shared.
#pragma once

#include <memory>
#include <span>

#include "compile/plan.hpp"
#include "hw/executor.hpp"
#include "tensor/tensor.hpp"

namespace mfdfp::hw {
class LayerProfiler;  // hw/layer_profile.hpp
}

namespace mfdfp::compile {

/// Largest patch for which the dense dot fits an int32 accumulator:
/// |code * weight| <= 128 * 2^7 = 2^14 per tap, so patch * 2^14 must stay
/// below 2^31, under any association of the sum. Patches up to this length
/// run the int16 x int16 -> int32 tile; longer ones a scalar int64 dot and
/// the checked routing. The analyzer (src/analysis) re-proves the int32
/// path from the actual per-channel bounds of each deployed plan.
inline constexpr std::size_t kI32SafePatch =
    static_cast<std::size_t>(2147483647) / 16384;

/// Runs the plan over scratch.input (code domain), leaving the result in
/// scratch.input. When `profiler` is non-null every step's host wall time is
/// recorded against its source desc layer.
void run_plan_codes(const CompiledPlan& plan, hw::ExecScratch& scratch,
                    hw::LayerProfiler* profiler = nullptr);

/// Full batched pipeline: encode the stacked images ({B, C, H, W}) at the
/// plan's input radix, execute every step, decode the logits. The steps run
/// on four samples at a time, so scratch holds four samples' activations
/// at any batch size. Bit-identical to AcceleratorExecutor::run() on the
/// source desc (enforced by tests/test_compile.cpp and
/// bench/ablation_compile).
[[nodiscard]] tensor::Tensor run_plan_batch(const CompiledPlan& plan,
                                            const tensor::Tensor& images,
                                            hw::ExecScratch& scratch,
                                            hw::LayerProfiler* profiler =
                                                nullptr);

/// Averaged-logit ensemble over one stacked batch: run_plan_batch on every
/// plan, member logits added in member order, then scaled by 1/members —
/// the arithmetic of hw::run_ensemble, so the result is bit-identical to
/// it. `profilers` is empty or holds one sink per plan (null entries skip
/// profiling for that member).
[[nodiscard]] tensor::Tensor run_ensemble_batch(
    std::span<const std::shared_ptr<const CompiledPlan>> plans,
    const tensor::Tensor& images, hw::ExecScratch& scratch,
    std::span<const std::unique_ptr<hw::LayerProfiler>> profilers = {});

}  // namespace mfdfp::compile
