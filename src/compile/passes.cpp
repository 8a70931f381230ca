#include "compile/passes.hpp"

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

/// (ih + 2*pad - k) / stride + 1, guarded against wraparound.
std::size_t out_extent(std::size_t in, std::size_t window, std::size_t stride,
                       std::size_t pad, std::size_t layer, const char* what) {
  if (stride == 0) lower_error(layer, std::string(what) + ": zero stride");
  if (in + 2 * pad < window) {
    lower_error(layer, std::string(what) + ": window exceeds padded input");
  }
  return (in + 2 * pad - window) / stride + 1;
}

/// Decodes a nibble-packed pow2 weight stream into the plain +/-2^(7+e)
/// integer multipliers the plan kernels use: synapse_product as a plain
/// multiplier, x * (+/-2^(7+e)) in the same 2^-(m+7) units, so plan
/// execution is bit-identical to the reference datapath.
void decode_fast_weights(const std::vector<std::uint8_t>& packed,
                         std::size_t count, std::vector<std::int32_t>& out) {
  if (packed.size() < (count + 1) / 2) {
    throw std::invalid_argument("pass_build_tables: short weight stream");
  }
  out.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint8_t byte = packed[k / 2];
    const std::uint8_t nibble =
        (k % 2 == 0) ? (byte & 0xF) : static_cast<std::uint8_t>(byte >> 4);
    const quant::Pow2Weight w = quant::decode_nibble(nibble);
    const std::int32_t magnitude = std::int32_t{1}
                                   << (hw::kProductFracBits + w.exponent);
    out[k] = w.negative ? -magnitude : magnitude;
  }
}

void refresh_stats(CompiledPlan& plan) {
  PlanStats st;
  st.steps = plan.steps.size();
  for (const PlanStep& s : plan.steps) {
    if (s.kind == StepKind::kConv && s.no_pad) ++st.specialized;
  }
  plan.stats = st;
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
      s.out_h = out_extent(h, conv->kernel, conv->stride, conv->pad, i, "conv");
      s.out_w = out_extent(w, conv->kernel, conv->stride, conv->pad, i, "conv");
      s.out_frac = conv->out_frac;
      {
        std::ostringstream label;
        label << "conv" << conv->kernel << "x" << conv->kernel << "s"
              << conv->stride << "p" << conv->pad;
        s.label = label.str();
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
      features = fc->out_features;
      frac = s.out_frac;
    } else if (const auto* pool = std::get_if<hw::QPool>(&layer)) {
      if (!spatial) lower_error(i, "pool on flattened input");
      s.kind = StepKind::kPool;
      s.in_c = c;
      s.in_h = h;
      s.in_w = w;
      s.out_c = c;
      s.out_h = out_extent(h, pool->window, pool->stride, pool->pad, i, "pool");
      s.out_w = out_extent(w, pool->window, pool->stride, pool->pad, i, "pool");
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
    plan.steps.push_back(std::move(s));
  }

  plan.out_features = spatial ? c * h * w : features;
  refresh_stats(plan);
  return plan;
}

void pass_specialize(CompiledPlan& plan) {
  for (PlanStep& s : plan.steps) {
    if (s.kind != StepKind::kConv) continue;
    // SupportsGeometry: with no padding every gather tap is in-bounds, so
    // the padded-tap branch can be compiled out of the inner loop. Padded
    // (or otherwise irregular) convs keep the generic fallback.
    s.no_pad = s.pad == 0;
  }
}

void pass_build_tables(const hw::QNetDesc& desc, CompiledPlan& plan) {
  for (PlanStep& s : plan.steps) {
    if (s.kind == StepKind::kConv) {
      const auto* conv = std::get_if<hw::QConv>(&desc.layers[s.source_layer]);
      if (conv == nullptr) {
        throw std::runtime_error("pass_build_tables: conv step source is not a conv layer");
      }
      const std::size_t patch = s.in_c * s.kernel * s.kernel;
      decode_fast_weights(conv->packed_weights, s.out_c * patch, s.weights);
      s.bias = conv->bias_codes;
      hw::build_conv_gather(s.in_c, s.in_h, s.in_w, s.kernel, s.stride, s.pad,
                            s.out_h, s.out_w, s.gather);
    } else if (s.kind == StepKind::kFullyConnected) {
      const auto* fc =
          std::get_if<hw::QFullyConnected>(&desc.layers[s.source_layer]);
      if (fc == nullptr) {
        throw std::runtime_error("pass_build_tables: fc step source is not an fc layer");
      }
      decode_fast_weights(fc->packed_weights,
                          s.out_features * s.in_features, s.weights);
      s.bias = fc->bias_codes;
    }
  }
}

void pass_verify(const CompiledPlan& plan) {
  bool spatial = true;
  std::size_t c = plan.in_c, h = plan.in_h, w = plan.in_w;
  std::size_t features = 0;
  int frac = plan.input_frac;

  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    if (s.in_frac != frac) verify_error(i, "radix chain break");
    switch (s.kind) {
      case StepKind::kConv: {
        if (!spatial || s.in_c != c || s.in_h != h || s.in_w != w) {
          verify_error(i, "conv input geometry mismatch");
        }
        if (s.stride == 0 || h + 2 * s.pad < s.kernel ||
            w + 2 * s.pad < s.kernel) {
          verify_error(i, "conv window exceeds padded input");
        }
        const std::size_t oh = (h + 2 * s.pad - s.kernel) / s.stride + 1;
        const std::size_t ow = (w + 2 * s.pad - s.kernel) / s.stride + 1;
        if (oh != s.out_h || ow != s.out_w) {
          verify_error(i, "conv output geometry mismatch");
        }
        const std::size_t patch = s.in_c * s.kernel * s.kernel;
        if (s.weights.size() != s.out_c * patch) {
          verify_error(i, "conv weight table size mismatch");
        }
        if (s.bias.size() != s.out_c) verify_error(i, "conv bias size mismatch");
        if (s.gather.size() != oh * ow * patch) {
          verify_error(i, "conv gather table size mismatch");
        }
        const std::size_t image = s.in_c * s.in_h * s.in_w;
        for (std::size_t tap : s.gather) {
          if (tap == SIZE_MAX) {
            if (s.no_pad) {
              verify_error(i, "no-pad specialization with padded taps");
            }
          } else if (tap >= image) {
            verify_error(i, "gather tap out of bounds");
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
        if (s.pool.stride == 0 || h + 2 * s.pool.pad < s.pool.window ||
            w + 2 * s.pool.pad < s.pool.window) {
          verify_error(i, "pool window exceeds padded input");
        }
        const std::size_t oh =
            (h + 2 * s.pool.pad - s.pool.window) / s.pool.stride + 1;
        const std::size_t ow =
            (w + 2 * s.pool.pad - s.pool.window) / s.pool.stride + 1;
        if (oh != s.out_h || ow != s.out_w || s.out_c != c) {
          verify_error(i, "pool output geometry mismatch");
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

void PassPipeline::add(std::string name, PassFn fn) {
  passes_.push_back({std::move(name), std::move(fn)});
}

CompiledPlan PassPipeline::run(const hw::QNetDesc& desc,
                               CompiledPlan draft) const {
  for (const Pass& pass : passes_) {
    pass.fn(desc, draft);
    draft.passes_run.push_back(pass.name);
  }
  refresh_stats(draft);
  return draft;
}

PassPipeline PassPipeline::standard(const CompileOptions& options) {
  PassPipeline pipeline;
  if (options.specialize) {
    pipeline.add("specialize", [](const hw::QNetDesc&, CompiledPlan& p) {
      pass_specialize(p);
    });
  }
  pipeline.add("tables", [](const hw::QNetDesc& d, CompiledPlan& p) {
    pass_build_tables(d, p);
  });
  pipeline.add("verify",
               [](const hw::QNetDesc&, CompiledPlan& p) { pass_verify(p); });
  if (options.analyze) {
    // After verify: the analyzer assumes structurally sound tables and
    // proves the numeric obligations on top (see analysis/analyzer.hpp).
    pipeline.add("analyze", [](const hw::QNetDesc&, CompiledPlan& p) {
      analysis::pass_analyze(p);
    });
  }
  return pipeline;
}

std::shared_ptr<const CompiledPlan> compile_qnet(const hw::QNetDesc& desc,
                                                 std::size_t in_c,
                                                 std::size_t in_h,
                                                 std::size_t in_w,
                                                 const CompileOptions& options) {
  CompiledPlan draft = lower_qnet(desc, in_c, in_h, in_w);
  draft.options = options;
  draft.content_hash = qnet_content_hash(desc);
  const PassPipeline pipeline = PassPipeline::standard(options);
  return std::make_shared<const CompiledPlan>(
      pipeline.run(desc, std::move(draft)));
}

}  // namespace mfdfp::compile
