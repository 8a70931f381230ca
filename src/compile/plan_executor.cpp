#include "compile/plan_executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "hw/kernels.hpp"
#include "hw/layer_profile.hpp"
#include "quant/dfp.hpp"

namespace mfdfp::compile {

namespace {

using hw::CodeTensor;
using tensor::Shape;

/// Tile shape of the MAC kernel: kTileRows output pixels (conv) or batch
/// rows (FC) by kTileCols output channels or features. 4x2 keeps the eight
/// int32 accumulator vectors and the six operand vectors of one k step in
/// the sixteen x86-64 vector registers.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 2;

/// Samples run_plan_batch takes through the steps at a time. The scratch
/// activations then hold kSubBatch samples whatever the batch size (a
/// cifar conv1 output is 32 KB per sample), and kTileRows of them keep the
/// FC tile's batch rows full.
constexpr std::size_t kSubBatch = kTileRows;

/// Exact dots of P rows of x against C weight rows, every row `len` int16
/// long and contiguous, into acc[p * C + c]. Each weight load serves P
/// rows and each accumulator is reduced once per tile. The k loop is a
/// plain widening int16 multiply-add, which GCC's vectorizer turns into
/// pmaddwd (baseline x86-64) at default Release flags; exact because
/// |code * weight| <= 2^14 and len <= kI32SafePatch.
template <std::size_t P, std::size_t C>
void mac_tile(const std::int16_t* x, const std::int16_t* w, std::size_t len,
              std::int32_t* acc) {
  std::int32_t sums[P][C] = {};
  for (std::size_t k = 0; k < len; ++k) {
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t c = 0; c < C; ++c) {
        sums[p][c] += std::int32_t{x[p * len + k]} * w[c * len + k];
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t c = 0; c < C; ++c) acc[p * C + c] = sums[p][c];
  }
}

using TileFn = void (*)(const std::int16_t*, const std::int16_t*,
                        std::size_t, std::int32_t*);

/// [rows - 1][cols - 1]: edge tiles run the same template, smaller.
constexpr TileFn kTiles[kTileRows][kTileCols] = {
    {mac_tile<1, 1>, mac_tile<1, 2>},
    {mac_tile<2, 1>, mac_tile<2, 2>},
    {mac_tile<3, 1>, mac_tile<3, 2>},
    {mac_tile<4, 1>, mac_tile<4, 2>},
};

/// Dots `rows` input rows against the step's `cols` weight rows (each `len`
/// long) and routes every sum with its column's bias. load(r0, n, dst)
/// writes input rows r0..r0+n-1 as int16 into dst, one kTileRows block at
/// a time; store(row, col, code) writes one routed output code. Rows
/// longer than kI32SafePatch take a scalar int64 dot and the checked
/// routing.
template <typename Load, typename Store>
void dot_and_route(const PlanStep& s, std::size_t rows, std::size_t cols,
                   std::size_t len, std::vector<std::int16_t>& block,
                   Load load, Store store) {
  const hw::SumRouter route(s.in_frac, s.out_frac);
  const std::int16_t* weights = s.weights.data();
  const bool i32 = len <= kI32SafePatch;
  block.resize(kTileRows * len);
  std::int32_t acc[kTileRows * kTileCols];
  for (std::size_t r0 = 0; r0 < rows; r0 += kTileRows) {
    const std::size_t nr = std::min(kTileRows, rows - r0);
    load(r0, nr, block.data());
    if (!i32) {
      for (std::size_t r = 0; r < nr; ++r) {
        const std::int16_t* x = block.data() + r * len;
        for (std::size_t c = 0; c < cols; ++c) {
          const std::int16_t* w = weights + c * len;
          std::int64_t sum = 0;
          for (std::size_t k = 0; k < len; ++k) {
            sum += static_cast<std::int64_t>(x[k]) * w[k];
          }
          store(r0 + r, c, route(sum, s.bias[c]));
        }
      }
      continue;
    }
    for (std::size_t c0 = 0; c0 < cols; c0 += kTileCols) {
      const std::size_t nc = std::min(kTileCols, cols - c0);
      kTiles[nr - 1][nc - 1](block.data(), weights + c0 * len, len, acc);
      for (std::size_t r = 0; r < nr; ++r) {
        for (std::size_t c = 0; c < nc; ++c) {
          store(r0 + r, c0 + c, route(acc[r * nc + c], s.bias[c0 + c]));
        }
      }
    }
  }
}

void run_conv_step(const PlanStep& s, const CodeTensor& input, CodeTensor& out,
                   hw::ExecScratch& scratch) {
  if (input.shape.rank() != 4 || input.shape.c() != s.in_c ||
      input.shape.h() != s.in_h || input.shape.w() != s.in_w) {
    throw std::invalid_argument("run_plan: conv input shape mismatch");
  }
  const std::size_t batch = input.shape.n();
  const std::size_t pixels = s.out_h * s.out_w;
  const std::size_t run = s.kernel * s.in_c;
  const std::size_t patch = run * s.kernel;
  const std::size_t image = s.in_c * s.in_h * s.in_w;
  const std::size_t ph = s.in_h + 2 * s.pad;
  const std::size_t pw = s.in_w + 2 * s.pad;

  out.shape = Shape{batch, s.out_c, s.out_h, s.out_w};
  out.frac = s.out_frac;
  out.codes.resize(out.shape.size());

  // A "valid" conv on a zero-bordered, channels-last int16 copy of each
  // sample (code 0 is 0 at every radix, so the padding is exact): each
  // input code is transposed and widened once, and a window's patch row is
  // `kernel` contiguous runs of kernel * in_c values at the step's run
  // offsets, copied into int16 im2col rows so the gather cost is amortized
  // over out_c dense dots.
  std::vector<std::int16_t>& padded = scratch.padded;
  padded.assign(ph * pw * s.in_c, 0);
  const std::uint32_t* runs = s.taps.data();
  for (std::size_t n = 0; n < batch; ++n) {
    const std::int8_t* codes = input.codes.data() + n * image;
    for (std::size_t c = 0; c < s.in_c; ++c) {
      for (std::size_t y = 0; y < s.in_h; ++y) {
        const std::int8_t* src = codes + (c * s.in_h + y) * s.in_w;
        std::int16_t* dst =
            padded.data() + ((y + s.pad) * pw + s.pad) * s.in_c + c;
        for (std::size_t x = 0; x < s.in_w; ++x) dst[x * s.in_c] = src[x];
      }
    }
    std::int8_t* dst = out.codes.data() + n * s.out_c * pixels;
    dot_and_route(
        s, pixels, s.out_c, patch, scratch.patch,
        [&](std::size_t p0, std::size_t count, std::int16_t* rows) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t oy = (p0 + i) / s.out_w, ox = (p0 + i) % s.out_w;
            const std::int16_t* window =
                padded.data() + (oy * s.stride * pw + ox * s.stride) * s.in_c;
            std::int16_t* row = rows + i * patch;
            for (std::size_t r = 0; r < s.kernel; ++r) {
              std::copy_n(window + runs[r], run, row + r * run);
            }
          }
        },
        [&](std::size_t pixel, std::size_t oc, std::int8_t code) {
          dst[oc * pixels + pixel] = code;
        });
  }
}

void run_fc_step(const PlanStep& s, const CodeTensor& input, CodeTensor& out,
                 hw::ExecScratch& scratch) {
  if (input.shape.rank() != 2 || input.shape.dim(1) != s.in_features) {
    throw std::invalid_argument("run_plan: fc input shape mismatch");
  }
  const std::size_t batch = input.shape.dim(0);
  out.shape = Shape{batch, s.out_features};
  out.frac = s.out_frac;
  out.codes.resize(out.shape.size());
  // The tile runs over (batch rows x out features); each int8 input row is
  // widened to int16 once.
  dot_and_route(
      s, batch, s.out_features, s.in_features, scratch.patch,
      [&](std::size_t r0, std::size_t count, std::int16_t* rows) {
        std::copy_n(input.codes.data() + r0 * s.in_features,
                    count * s.in_features, rows);
      },
      [&](std::size_t row, std::size_t o, std::int8_t code) {
        out.codes[row * s.out_features + o] = code;
      });
}

/// `shape` with its leading (batch) dim set to `n`.
Shape with_batch(const Shape& shape, std::size_t n) {
  switch (shape.rank()) {
    case 1: return Shape{n};
    case 2: return Shape{n, shape.dim(1)};
    case 3: return Shape{n, shape.dim(1), shape.dim(2)};
    default: return Shape{n, shape.dim(1), shape.dim(2), shape.dim(3)};
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
        run_fc_step(s, scratch.input, scratch.output, scratch);
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
  const std::size_t batch = images.shape().n();
  const std::size_t sample = images.size() / batch;
  tensor::Tensor logits;
  // Every sample's arithmetic is independent of the others, so running the
  // steps kSubBatch samples at a time gives the codes of one pass over the
  // whole batch.
  for (std::size_t n0 = 0; n0 < batch; n0 += kSubBatch) {
    const std::size_t count = std::min(kSubBatch, batch - n0);
    CodeTensor::encode_into(images.data().subspan(n0 * sample, count * sample),
                            with_batch(images.shape(), count),
                            plan.input_frac, scratch.input);
    run_plan_codes(plan, scratch, profiler);

    const CodeTensor& out = scratch.input;
    if (n0 == 0) logits = tensor::Tensor{with_batch(out.shape, batch)};
    const quant::DfpFormat out_format{hw::kInputBits, out.frac};
    float* dst = logits.data().data() + n0 * (out.codes.size() / count);
    for (std::size_t i = 0; i < out.codes.size(); ++i) {
      dst[i] = out_format.decode(out.codes[i]);
    }
  }
  if (profiler != nullptr) profiler->record_pass(batch);
  return logits;
}

tensor::Tensor run_ensemble_batch(
    std::span<const std::shared_ptr<const CompiledPlan>> plans,
    const tensor::Tensor& images, hw::ExecScratch& scratch,
    std::span<const std::unique_ptr<hw::LayerProfiler>> profilers) {
  const auto profiler = [&](std::size_t m) {
    return profilers.empty() ? nullptr : profilers[m].get();
  };
  tensor::Tensor logits =
      run_plan_batch(*plans.front(), images, scratch, profiler(0));
  for (std::size_t m = 1; m < plans.size(); ++m) {
    logits.add(run_plan_batch(*plans[m], images, scratch, profiler(m)));
  }
  if (plans.size() > 1) {
    logits.scale(1.0f / static_cast<float>(plans.size()));
  }
  return logits;
}

}  // namespace mfdfp::compile
