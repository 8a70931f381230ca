#include "compile/passes.hpp"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <variant>

#include "analysis/analyzer.hpp"
#include "hw/datapath.hpp"
#include "hw/kernels.hpp"
#include "quant/pow2.hpp"

namespace mfdfp::compile {

namespace {

[[noreturn]] void lower_error(std::size_t layer, const std::string& what) {
  throw std::invalid_argument("lower_qnet: L" + std::to_string(layer) + ": " +
                              what);
}

[[noreturn]] void verify_error(std::size_t step, const std::string& what) {
  throw std::runtime_error("plan verifier: step " + std::to_string(step) +
                           ": " + what);
}

/// hw::window_extent with desc layer `layer` named in the error.
std::size_t lowered_extent(std::size_t in, std::size_t window,
                           std::size_t stride, std::size_t pad,
                           std::size_t layer, const char* what) {
  const std::string who =
      "lower_qnet: L" + std::to_string(layer) + ": " + what;
  return hw::window_extent(in, window, stride, pad, who.c_str());
}

/// hw::window_extent of plan step `step`: a geometry it rejects fails
/// verification.
std::size_t verified_extent(std::size_t in, std::size_t window,
                            std::size_t stride, std::size_t pad,
                            std::size_t step, const char* what) {
  try {
    return hw::window_extent(in, window, stride, pad, what);
  } catch (const std::invalid_argument& e) {
    verify_error(step, e.what());
  }
}

/// Decodes a nibble-packed pow2 weight stream into the plain +/-2^(7+e)
/// integer multipliers the plan kernels use: synapse_product as a plain
/// multiplier, x * (+/-2^(7+e)) in the same 2^-(m+7) units, so plan
/// execution is bit-identical to the reference datapath. Every multiplier
/// has |w| <= 2^7, so int16 holds it exactly.
std::vector<std::int16_t> decode_fast_weights(
    const std::vector<std::uint8_t>& packed, std::size_t count) {
  std::vector<std::int16_t> out;
  out.reserve(count);
  for (const quant::Pow2Weight& w : quant::unpack_pow2(packed, count)) {
    const int magnitude = 1 << (hw::kProductFracBits + w.exponent);
    out.push_back(
        static_cast<std::int16_t>(w.negative ? -magnitude : magnitude));
  }
  return out;
}

/// Conv weights decoded in the desc's [oc][ic][ky][kx] order, permuted to
/// the [oc][ky][kx][ic] order of a channels-last patch. Exact: a dot
/// product is exact under any order of its terms.
std::vector<std::int16_t> channels_last_weights(const hw::QConv& conv) {
  const std::size_t c = conv.in_c, k = conv.kernel;
  const std::vector<std::int16_t> chw =
      decode_fast_weights(conv.packed_weights, conv.out_c * c * k * k);
  std::vector<std::int16_t> hwc(chw.size());
  std::size_t i = 0;
  for (std::size_t oc = 0; oc < conv.out_c; ++oc) {
    for (std::size_t ic = 0; ic < c; ++ic) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          hwc[((oc * k + ky) * k + kx) * c + ic] = chw[i++];
        }
      }
    }
  }
  return hwc;
}

}  // namespace

CompiledPlan lower_qnet(const hw::QNetDesc& desc, std::size_t in_c,
                        std::size_t in_h, std::size_t in_w) {
  CompiledPlan plan;
  plan.model = desc.name;
  plan.input_frac = desc.input_frac;
  plan.in_c = in_c;
  plan.in_h = in_h;
  plan.in_w = in_w;

  bool spatial = true;
  std::size_t c = in_c, h = in_h, w = in_w;
  std::size_t features = 0;
  int frac = desc.input_frac;

  for (std::size_t i = 0; i < desc.layers.size(); ++i) {
    const hw::QLayer& layer = desc.layers[i];
    PlanStep s;
    s.source_layer = i;
    s.in_frac = frac;
    if (const auto* conv = std::get_if<hw::QConv>(&layer)) {
      if (!spatial || c != conv->in_c) lower_error(i, "conv input mismatch");
      s.kind = StepKind::kConv;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_c = conv->out_c;
      s.kernel = conv->kernel;
      s.stride = conv->stride;
      s.pad = conv->pad;
      s.out_h = lowered_extent(h, conv->kernel, conv->stride, conv->pad, i,
                               "conv");
      s.out_w = lowered_extent(w, conv->kernel, conv->stride, conv->pad, i,
                               "conv");
      s.out_frac = conv->out_frac;
      {
        std::ostringstream label;
        label << "conv" << conv->kernel << "x" << conv->kernel << "s"
              << conv->stride << "p" << conv->pad;
        s.label = label.str();
      }
      const std::size_t ph = h + 2 * s.pad;
      const std::size_t pw = w + 2 * s.pad;
      if (!hw::fits_u32_map(c, ph, pw)) {
        lower_error(i, "padded sample exceeds 32-bit tap offsets");
      }
      if (!hw::fits_u32_map(s.out_c, s.out_h, s.out_w)) {
        lower_error(i, "conv output map exceeds 32 bits");
      }
      s.weights = channels_last_weights(*conv);
      s.bias = conv->bias_codes;
      // One run of kernel * in_c contiguous codes per kernel row ky.
      s.taps.reserve(s.kernel);
      for (std::size_t ky = 0; ky < s.kernel; ++ky) {
        s.taps.push_back(static_cast<std::uint32_t>(ky * pw * c));
      }
      c = s.out_c;
      h = s.out_h;
      w = s.out_w;
      frac = s.out_frac;
    } else if (const auto* fc = std::get_if<hw::QFullyConnected>(&layer)) {
      if (spatial || features != fc->in_features) {
        lower_error(i, "fc input mismatch (missing flatten?)");
      }
      s.kind = StepKind::kFullyConnected;
      s.in_features = fc->in_features;
      s.out_features = fc->out_features;
      s.out_frac = fc->out_frac;
      s.label = "fc" + std::to_string(fc->out_features);
      s.weights = decode_fast_weights(fc->packed_weights,
                                      s.out_features * s.in_features);
      s.bias = fc->bias_codes;
      features = fc->out_features;
      frac = s.out_frac;
    } else if (const auto* pool = std::get_if<hw::QPool>(&layer)) {
      if (!spatial) lower_error(i, "pool on flattened input");
      s.kind = StepKind::kPool;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_c = c;
      s.out_h = lowered_extent(h, pool->window, pool->stride, pool->pad, i,
                               "pool");
      s.out_w = lowered_extent(w, pool->window, pool->stride, pool->pad, i,
                               "pool");
      if (!hw::fits_u32_map(c, s.out_h, s.out_w)) {
        lower_error(i, "pool output map exceeds 32 bits");
      }
      s.out_frac = pool->out_frac;
      s.pool = *pool;
      {
        std::ostringstream label;
        label << (pool->is_max ? "maxpool" : "avgpool") << pool->window << "s"
              << pool->stride;
        if (pool->pad != 0) label << "p" << pool->pad;
        s.label = label.str();
      }
      h = s.out_h;
      w = s.out_w;
      frac = s.out_frac;
    } else if (const auto* relu = std::get_if<hw::QRelu>(&layer)) {
      s.kind = StepKind::kRelu;
      if (spatial) {
        s.in_c = s.out_c = c;
        s.in_h = s.out_h = h;
        s.in_w = s.out_w = w;
      } else {
        s.in_features = s.out_features = features;
      }
      s.out_frac = relu->out_frac;
      s.label = "relu";
      frac = s.out_frac;
    } else if (const auto* flat = std::get_if<hw::QFlatten>(&layer)) {
      if (!spatial) lower_error(i, "double flatten");
      s.kind = StepKind::kFlatten;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_features = c * h * w;
      s.out_frac = flat->out_frac;
      s.label = "flatten";
      spatial = false;
      features = s.out_features;
      frac = s.out_frac;
    }
    plan.stats.payload_bytes += s.weights.size() * sizeof(std::int16_t) +
                                s.bias.size() * sizeof(std::int8_t) +
                                s.taps.size() * sizeof(std::uint32_t);
    plan.steps.push_back(std::move(s));
  }

  plan.out_features = spatial ? c * h * w : features;
  plan.stats.steps = plan.steps.size();
  pass_verify(plan);
  return plan;
}

void pass_verify(const CompiledPlan& plan) {
  bool spatial = true;
  std::size_t c = plan.in_c, h = plan.in_h, w = plan.in_w;
  std::size_t features = 0;
  int frac = plan.input_frac;

  hw::check_radix(plan.input_frac, "plan verifier: input");
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    if (s.in_frac != frac) verify_error(i, "radix chain break");
    hw::check_radix(s.out_frac,
                    ("plan verifier: step " + std::to_string(i)).c_str());
    switch (s.kind) {
      case StepKind::kConv: {
        if (!spatial || s.in_c != c || s.in_h != h || s.in_w != w) {
          verify_error(i, "conv input geometry mismatch");
        }
        const std::size_t oh =
            verified_extent(h, s.kernel, s.stride, s.pad, i, "conv");
        const std::size_t ow =
            verified_extent(w, s.kernel, s.stride, s.pad, i, "conv");
        if (oh != s.out_h || ow != s.out_w) {
          verify_error(i, "conv output geometry mismatch");
        }
        const std::size_t ph = h + 2 * s.pad, pw = w + 2 * s.pad;
        if (!hw::fits_u32_map(c, ph, pw)) {
          verify_error(i, "padded sample exceeds 32-bit tap offsets");
        }
        if (!hw::fits_u32_map(s.out_c, oh, ow)) {
          verify_error(i, "conv output map exceeds 32 bits");
        }
        const std::size_t run = s.kernel * c;
        if (s.weights.size() != s.out_c * run * s.kernel) {
          verify_error(i, "conv weight table size mismatch");
        }
        if (s.bias.size() != s.out_c) verify_error(i, "conv bias size mismatch");
        if (s.taps.size() != s.kernel) {
          verify_error(i, "conv run row size mismatch");
        }
        // The last window's origin plus every run offset plus the run
        // length stays inside the channels-last padded sample, so no run of
        // any window can read past it. Each term is below 2^32, so the sum
        // cannot wrap.
        const std::size_t last =
            ((oh - 1) * s.stride * pw + (ow - 1) * s.stride) * c;
        for (std::uint32_t tap : s.taps) {
          if (last + tap + run > ph * pw * c) {
            verify_error(i, "conv run outside the padded sample");
          }
        }
        c = s.out_c;
        h = s.out_h;
        w = s.out_w;
        frac = s.out_frac;
        break;
      }
      case StepKind::kFullyConnected: {
        if (spatial || s.in_features != features) {
          verify_error(i, "fc input mismatch");
        }
        if (s.weights.size() != s.out_features * s.in_features) {
          verify_error(i, "fc weight table size mismatch");
        }
        if (s.bias.size() != s.out_features) {
          verify_error(i, "fc bias size mismatch");
        }
        features = s.out_features;
        frac = s.out_frac;
        break;
      }
      case StepKind::kPool: {
        if (!spatial || s.in_c != c || s.in_h != h || s.in_w != w) {
          verify_error(i, "pool input geometry mismatch");
        }
        const std::size_t oh = verified_extent(h, s.pool.window, s.pool.stride,
                                               s.pool.pad, i, "pool");
        const std::size_t ow = verified_extent(w, s.pool.window, s.pool.stride,
                                               s.pool.pad, i, "pool");
        if (oh != s.out_h || ow != s.out_w || s.out_c != c) {
          verify_error(i, "pool output geometry mismatch");
        }
        if (!hw::fits_u32_map(c, oh, ow)) {
          verify_error(i, "pool output map exceeds 32 bits");
        }
        if (s.pool.out_frac != s.out_frac) {
          verify_error(i, "pool radix mismatch");
        }
        h = oh;
        w = ow;
        frac = s.out_frac;
        break;
      }
      case StepKind::kRelu:
        frac = s.out_frac;
        break;
      case StepKind::kFlatten: {
        if (!spatial) verify_error(i, "flatten of flattened input");
        features = c * h * w;
        if (s.out_features != features) {
          verify_error(i, "flatten feature count mismatch");
        }
        spatial = false;
        frac = s.out_frac;
        break;
      }
    }
  }

  const std::size_t final_features = spatial ? c * h * w : features;
  if (final_features != plan.out_features) {
    throw std::runtime_error("plan verifier: output feature count mismatch");
  }
}

std::shared_ptr<const CompiledPlan> compile_qnet(const hw::QNetDesc& desc,
                                                 std::size_t in_c,
                                                 std::size_t in_h,
                                                 std::size_t in_w) {
  CompiledPlan plan = lower_qnet(desc, in_c, in_h, in_w);
  plan.content_hash = qnet_content_hash(desc);
  // After verify: the analyzer assumes structurally sound tables and
  // proves the numeric obligations on top (see analysis/analyzer.hpp).
  analysis::pass_analyze(plan);
  return std::make_shared<const CompiledPlan>(std::move(plan));
}

}  // namespace mfdfp::compile
