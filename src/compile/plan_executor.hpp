// Executes a CompiledPlan — the only batched execution path — bit-identical
// to the reference AcceleratorExecutor::run() (and therefore to the
// fake-quantized software model) by construction: every lossy stage calls
// the shared hw/kernels.hpp implementations, and the integer dot products
// are exact under any association, so the plan's prebuilt gather tables and
// im2col patch buffers only reorder exact arithmetic.
//
// Thread-safety: callers are concurrent as long as each brings its own
// ExecScratch; the plan itself is immutable and shared.
#pragma once

#include "compile/plan.hpp"
#include "hw/executor.hpp"
#include "tensor/tensor.hpp"

namespace mfdfp::hw {
class LayerProfiler;  // hw/layer_profile.hpp
}

namespace mfdfp::compile {

/// Largest patch for which the dense dot fits an int32 accumulator:
/// |code * weight| <= 128 * 2^7 = 2^14 per tap, so patch * 2^14 must stay
/// below 2^31. Integer addition is exact either way — the narrower
/// accumulator only exists to double the vectorization width. The
/// analyzer (src/analysis) re-proves the int32 path from the actual
/// per-channel bounds of each deployed plan.
inline constexpr std::size_t kI32SafePatch =
    static_cast<std::size_t>(2147483647) / 16384;

/// Runs the plan over scratch.input (code domain), leaving the result in
/// scratch.input. When `profiler` is non-null every step's host wall time is
/// recorded against its source desc layer.
void run_plan_codes(const CompiledPlan& plan, hw::ExecScratch& scratch,
                    hw::LayerProfiler* profiler = nullptr);

/// Full batched pipeline: encode the stacked images ({B, C, H, W}) at the
/// plan's input radix, execute every step, decode the logits. Bit-identical
/// to AcceleratorExecutor::run() on the source desc (enforced by
/// tests/test_compile.cpp and bench/ablation_compile).
[[nodiscard]] tensor::Tensor run_plan_batch(const CompiledPlan& plan,
                                            const tensor::Tensor& images,
                                            hw::ExecScratch& scratch,
                                            hw::LayerProfiler* profiler =
                                                nullptr);

}  // namespace mfdfp::compile
