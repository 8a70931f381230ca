// Hardware-path evaluation backed by the deploy-time compiler.
//
// Training-side accuracy loops (ensemble eval, post-conversion accuracy
// checks) used to run the fake-quantized *float* simulation of each
// network; the compiled-plan executor produces bit-identical logits from
// the integer shift-add datapath (the repo's load-bearing invariant), in
// batches, so evaluation is faster and exercises the exact artifact that
// ModelServer::deploy() serves.
#pragma once

#include <span>

#include "compile/plan.hpp"
#include "hw/qnet.hpp"
#include "nn/metrics.hpp"

namespace mfdfp::core {

/// Evaluates `members` as an averaged-logit ensemble (a single network is
/// the one-member case) over raw float `images` (N, C, H, W) through
/// compiled plans: each member is lowered once by the standard pass
/// pipeline, then every batch runs the plan's integer steps with logits
/// averaged exactly like hw::run_ensemble. Bit-identical to
/// evaluating the fake-quantized float networks on quantize_input()-ed
/// images — input encoding is idempotent, so raw and pre-quantized images
/// produce the same codes.
[[nodiscard]] nn::EvalResult evaluate_qnets_compiled(
    std::span<const hw::QNetDesc> members, const tensor::Tensor& images,
    std::span<const int> labels, std::size_t batch_size = 64,
    const compile::CompileOptions& options = {});

}  // namespace mfdfp::core
