#include "compile/plan_executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "hw/kernels.hpp"
#include "hw/layer_profile.hpp"

namespace mfdfp::compile {

namespace {

using hw::CodeTensor;
using tensor::Shape;

void run_conv_step(const PlanStep& s, const CodeTensor& input, CodeTensor& out,
                   hw::ExecScratch& scratch) {
  if (input.shape.rank() != 4 || input.shape.c() != s.in_c ||
      input.shape.h() != s.in_h || input.shape.w() != s.in_w) {
    throw std::invalid_argument("run_plan: conv input shape mismatch");
  }
  const std::size_t batch = input.shape.n();
  const std::size_t pixels = s.out_h * s.out_w;
  const std::size_t patch = s.in_c * s.kernel * s.kernel;
  const std::size_t image = s.in_c * s.in_h * s.in_w;
  const std::size_t ph = s.in_h + 2 * s.pad;
  const std::size_t pw = s.in_w + 2 * s.pad;

  out.shape = Shape{batch, s.out_c, s.out_h, s.out_w};
  out.frac = s.out_frac;
  out.codes.resize(out.shape.size());

  // A "valid" conv on a zero-bordered copy of each sample (code 0 is 0 at
  // every radix, so the padding is exact): every window is read through the
  // one tap-offset row into a contiguous im2col patch, so the gather cost is
  // amortized over out_c dense branch-free dots instead of paid per channel.
  std::vector<std::int8_t>& padded = scratch.padded;
  std::vector<std::int8_t>& patchbuf = scratch.patch;
  padded.assign(s.in_c * ph * pw, 0);
  patchbuf.resize(patch);
  const std::uint32_t* taps = s.taps.data();
  const bool i32 = patch <= kI32SafePatch;
  for (std::size_t n = 0; n < batch; ++n) {
    const std::int8_t* codes = input.codes.data() + n * image;
    for (std::size_t c = 0; c < s.in_c; ++c) {
      for (std::size_t y = 0; y < s.in_h; ++y) {
        std::copy_n(codes + (c * s.in_h + y) * s.in_w, s.in_w,
                    padded.data() + (c * ph + y + s.pad) * pw + s.pad);
      }
    }
    for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
      const std::size_t oy = pixel / s.out_w, ox = pixel % s.out_w;
      const std::int8_t* window =
          padded.data() + oy * s.stride * pw + ox * s.stride;
      for (std::size_t k = 0; k < patch; ++k) patchbuf[k] = window[taps[k]];
      std::int8_t* dst = out.codes.data() + n * s.out_c * pixels + pixel;
      for (std::size_t oc = 0; oc < s.out_c; ++oc) {
        const std::int32_t* wrow = s.weights.data() + oc * patch;
        std::int64_t sum;
        if (i32) {
          std::int32_t acc = 0;
          for (std::size_t k = 0; k < patch; ++k) {
            acc += static_cast<std::int32_t>(patchbuf[k]) * wrow[k];
          }
          sum = acc;
        } else {
          std::int64_t acc = 0;
          for (std::size_t k = 0; k < patch; ++k) {
            acc += static_cast<std::int64_t>(patchbuf[k]) * wrow[k];
          }
          sum = acc;
        }
        dst[oc * pixels] = static_cast<std::int8_t>(
            hw::route_sum(sum, s.in_frac, s.out_frac, s.bias[oc]));
      }
    }
  }
}

void run_fc_step(const PlanStep& s, const CodeTensor& input, CodeTensor& out) {
  if (input.shape.rank() != 2 || input.shape.dim(1) != s.in_features) {
    throw std::invalid_argument("run_plan: fc input shape mismatch");
  }
  const std::size_t batch = input.shape.dim(0);
  out.shape = Shape{batch, s.out_features};
  out.frac = s.out_frac;
  out.codes.resize(out.shape.size());
  const bool i32 = s.in_features <= kI32SafePatch;
  for (std::size_t n = 0; n < batch; ++n) {
    const std::int8_t* row = input.codes.data() + n * s.in_features;
    for (std::size_t o = 0; o < s.out_features; ++o) {
      const std::int32_t* wrow = s.weights.data() + o * s.in_features;
      std::int64_t sum;
      if (i32) {
        std::int32_t acc = 0;
        for (std::size_t k = 0; k < s.in_features; ++k) {
          acc += static_cast<std::int32_t>(row[k]) * wrow[k];
        }
        sum = acc;
      } else {
        std::int64_t acc = 0;
        for (std::size_t k = 0; k < s.in_features; ++k) {
          acc += static_cast<std::int64_t>(row[k]) * wrow[k];
        }
        sum = acc;
      }
      out.codes[n * s.out_features + o] = static_cast<std::int8_t>(
          hw::route_sum(sum, s.in_frac, s.out_frac, s.bias[o]));
    }
  }
}

}  // namespace

void run_plan_codes(const CompiledPlan& plan, hw::ExecScratch& scratch,
                    hw::LayerProfiler* profiler) {
  using clock = std::chrono::steady_clock;
  const bool profiled = profiler != nullptr;
  for (const PlanStep& s : plan.steps) {
    const clock::time_point step_start =
        profiled ? clock::now() : clock::time_point{};
    switch (s.kind) {
      case StepKind::kConv:
        run_conv_step(s, scratch.input, scratch.output, scratch);
        std::swap(scratch.input, scratch.output);
        break;
      case StepKind::kFullyConnected:
        run_fc_step(s, scratch.input, scratch.output);
        std::swap(scratch.input, scratch.output);
        break;
      case StepKind::kPool:
        hw::pool_forward(s.pool, scratch.input, scratch.output);
        std::swap(scratch.input, scratch.output);
        break;
      case StepKind::kRelu:
        hw::apply_relu(scratch.input, s.out_frac);
        break;
      case StepKind::kFlatten:
        hw::apply_flatten(scratch.input, s.out_frac);
        break;
    }
    if (profiled) {
      profiler->record_layer_host_ns(
          s.source_layer,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - step_start)
                  .count()));
    }
  }
}

tensor::Tensor run_plan_batch(const CompiledPlan& plan,
                              const tensor::Tensor& images,
                              hw::ExecScratch& scratch,
                              hw::LayerProfiler* profiler) {
  CodeTensor::encode_into(images, plan.input_frac, scratch.input);
  run_plan_codes(plan, scratch, profiler);
  if (profiler != nullptr) profiler->record_pass(images.shape().n());
  return scratch.input.decode();
}

}  // namespace mfdfp::compile
