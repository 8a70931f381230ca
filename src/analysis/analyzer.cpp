#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "compile/plan_executor.hpp"
#include "hw/fixed_point.hpp"
#include "quant/dfp.hpp"
#include "util/table.hpp"

namespace mfdfp::analysis {

namespace {

using compile::CompiledPlan;
using compile::PlanStep;
using compile::StepKind;

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kCodeMin = hw::min_for_bits(hw::kInputBits);
constexpr std::int64_t kCodeMax = hw::max_for_bits(hw::kInputBits);

/// Saturating add on the int64 model carrier; sets `overflow` when the
/// mathematical sum does not fit (the bound itself is then unusable — the
/// plan gets a carrier-overflow violation, strictly stronger than any
/// accumulator-width violation).
std::int64_t sat_add(std::int64_t a, std::int64_t b, bool& overflow) {
  if (b > 0 && a > kI64Max - b) {
    overflow = true;
    return kI64Max;
  }
  if (b < 0 && a < kI64Min - b) {
    overflow = true;
    return kI64Min;
  }
  return a + b;
}

/// Mirrors hw::shift_left_checked without throwing: sets `overflow` where
/// the runtime would throw std::overflow_error.
std::int64_t shl_model(std::int64_t value, int shift, bool& overflow) {
  if (shift >= 62 && value != 0) {
    overflow = true;
    return value > 0 ? kI64Max : kI64Min;
  }
  const std::int64_t shifted =
      static_cast<std::int64_t>(static_cast<std::uint64_t>(value)
                                << static_cast<unsigned>(shift));
  if (shift > 0 && (shifted >> shift) != value) {
    overflow = true;
    return value > 0 ? kI64Max : kI64Min;
  }
  return shifted;
}

Interval saturate8(const Interval& iv) noexcept {
  return {hw::saturate(iv.lo, hw::kInputBits),
          hw::saturate(iv.hi, hw::kInputBits)};
}

/// Worst-case excess of `iv` beyond the 8-bit code range, in code units.
/// Saturating: an interval already saturated to the carrier limits (which
/// only happens alongside a carrier-overflow violation) reports a clamped
/// clip instead of wrapping.
std::int64_t clip_excess(const Interval& iv) noexcept {
  bool saturated = false;
  std::int64_t clip = 0;
  if (iv.hi > kCodeMax) clip = iv.hi - kCodeMax;
  if (iv.lo < kCodeMin) clip = sat_add(clip, kCodeMin - iv.lo, saturated);
  return clip;
}

/// Saturating clip accumulation (same rationale as clip_excess).
void add_clip(std::int64_t& clip, std::int64_t amount) noexcept {
  bool saturated = false;
  clip = sat_add(clip, amount, saturated);
}

/// hw::convert_code on both endpoints (it is monotone: a left shift or a
/// round-half-away right shift, then saturation). Accumulates the
/// conversion's own worst-case clip into `clip`; sets `overflow` when the
/// runtime conversion would throw on carrier overflow.
Interval convert_interval(const Interval& iv, int from_frac, int to_frac,
                          std::int64_t& clip, bool& overflow) {
  Interval wide;
  if (to_frac >= from_frac) {
    wide.lo = shl_model(iv.lo, to_frac - from_frac, overflow);
    wide.hi = shl_model(iv.hi, to_frac - from_frac, overflow);
  } else {
    wide.lo = hw::shift_round(iv.lo, from_frac - to_frac);
    wide.hi = hw::shift_round(iv.hi, from_frac - to_frac);
  }
  add_clip(clip, clip_excess(wide));
  return saturate8(wide);
}

/// AccumulatorRouting::route() on an accumulator interval, shift for
/// shift: align accumulator and bias on the common radix grid, add,
/// round-half-away back to the output radix. Returns the pre-saturation
/// ("routed") interval; every float-free op in route() is monotone, so the
/// endpoints bound every reachable value.
Interval route_interval(const Interval& dot, int in_frac, int out_frac,
                        std::int32_t bias_code, bool& overflow) {
  const int acc_frac = in_frac + hw::kProductFracBits;
  const int grid = std::max(acc_frac, out_frac);
  Interval aligned{shl_model(dot.lo, grid - acc_frac, overflow),
                   shl_model(dot.hi, grid - acc_frac, overflow)};
  const std::int64_t bias_aligned =
      shl_model(bias_code, grid - out_frac, overflow);
  Interval sum{sat_add(aligned.lo, bias_aligned, overflow),
               sat_add(aligned.hi, bias_aligned, overflow)};
  return {hw::shift_round(sum.lo, grid - out_frac),
          hw::shift_round(sum.hi, grid - out_frac)};
}

/// In-bounds tap-count range over every pool window of the geometry (a
/// padded pool's edge windows cover fewer real taps).
std::pair<std::size_t, std::size_t> pool_tap_counts(const hw::QPool& pool,
                                                    std::size_t ih,
                                                    std::size_t iw,
                                                    std::size_t oh,
                                                    std::size_t ow) {
  std::size_t min_taps = pool.window * pool.window;
  std::size_t max_taps = 0;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      std::size_t taps = 0;
      for (std::size_t ky = 0; ky < pool.window; ++ky) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * pool.stride + ky) -
            static_cast<std::ptrdiff_t>(pool.pad);
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
        for (std::size_t kx = 0; kx < pool.window; ++kx) {
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * pool.stride + kx) -
              static_cast<std::ptrdiff_t>(pool.pad);
          if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
          ++taps;
        }
      }
      min_taps = std::min(min_taps, taps);
      max_taps = std::max(max_taps, taps);
    }
  }
  return {min_taps, max_taps};
}

/// The kernel's exact avg-pool expression at one tap-sum value — every op
/// (exact double widening, ldexp, float rounding, multiply by a positive
/// constant, encode's round-half-away) is monotone nondecreasing in `sum`,
/// so evaluating it at the sum interval's endpoints bounds every window.
std::int64_t avg_pool_code(std::int64_t sum, int in_frac,
                           const quant::DfpFormat& out_format,
                           float inv_area) {
  const float value =
      static_cast<float>(std::ldexp(static_cast<double>(sum), -in_frac)) *
      inv_area;
  return out_format.encode(value);
}

/// pool_forward on a per-channel input interval. Identical geometry for
/// every channel, so one transform serves all.
Interval pool_interval(const hw::QPool& pool, const Interval& in,
                       int in_frac, std::size_t ih, std::size_t iw,
                       std::size_t oh, std::size_t ow, std::int64_t& clip,
                       bool& overflow) {
  const auto [min_taps, max_taps] = pool_tap_counts(pool, ih, iw, oh, ow);
  if (pool.is_max) {
    // max of n >= 1 taps each in [lo, hi] stays in [lo, hi]; a fully
    // padded window contributes code 0.
    Interval best = in;
    if (min_taps == 0) best = best.hull({0, 0});
    return convert_interval(best, in_frac, pool.out_frac, clip, overflow);
  }
  // Average: the tap sum of n in-bounds taps each in [lo, hi] is minimized
  // by n*lo (largest n when lo < 0) and maximized by n*hi.
  const auto n_lo = static_cast<std::int64_t>(min_taps);
  const auto n_hi = static_cast<std::int64_t>(max_taps);
  const std::int64_t sum_lo = in.lo < 0 ? n_hi * in.lo : n_lo * in.lo;
  const std::int64_t sum_hi = in.hi > 0 ? n_hi * in.hi : n_lo * in.hi;
  const quant::DfpFormat out_format{hw::kInputBits, pool.out_frac};
  const float inv_area =
      1.0f / static_cast<float>(pool.window * pool.window);
  // encode() saturates internally; avg pool therefore never overflows, and
  // its clip (if any) is already folded into the returned codes.
  return {avg_pool_code(sum_lo, in_frac, out_format, inv_area),
          avg_pool_code(sum_hi, in_frac, out_format, inv_area)};
}

/// Which conv taps can be padded (SIZE_MAX) for at least one output pixel
/// — those contribute 0 instead of w*code for such pixels, so their
/// interval is widened with 0.
std::vector<bool> maybe_padded_taps(const PlanStep& s) {
  const std::size_t patch = s.in_c * s.kernel * s.kernel;
  std::vector<bool> maybe(patch, false);
  if (s.gather.size() == s.out_h * s.out_w * patch) {
    for (std::size_t row = 0; row < s.out_h * s.out_w; ++row) {
      const std::size_t* taps = s.gather.data() + row * patch;
      for (std::size_t k = 0; k < patch; ++k) {
        if (taps[k] == SIZE_MAX) maybe[k] = true;
      }
    }
  } else if (s.pad != 0) {
    // No gather table to consult (hand-built plan): conservatively treat
    // every tap as paddable.
    maybe.assign(patch, true);
  }
  return maybe;
}

std::string interval_str(const Interval& iv) {
  return "[" + std::to_string(iv.lo) + ", " + std::to_string(iv.hi) + "]";
}

const char* kind_name(StepKind kind) {
  switch (kind) {
    case StepKind::kConv:           return "conv";
    case StepKind::kFullyConnected: return "fc";
    case StepKind::kPool:           return "pool";
    case StepKind::kRelu:           return "relu";
    case StepKind::kFlatten:        return "flatten";
  }
  return "?";
}

}  // namespace

int bits_needed(const Interval& iv) noexcept {
  for (int bits = 1; bits < 64; ++bits) {
    if (hw::fits_bits(iv.lo, bits) && hw::fits_bits(iv.hi, bits)) return bits;
  }
  return 64;
}

AnalysisReport analyze_plan(const CompiledPlan& plan,
                            const AnalysisOptions& options) {
  AnalysisReport report;
  report.model = plan.model;

  // Abstract state: one code interval per channel while spatial, one per
  // feature after flatten. Codes are 8-bit everywhere, so the state is
  // always within [-128, 127]; only transient dot/route values widen.
  Interval input = {std::max(options.input.lo, kCodeMin),
                    std::min(options.input.hi, kCodeMax)};
  if (input.lo > input.hi) {
    throw std::invalid_argument("analyze_plan: empty input interval");
  }
  std::vector<Interval> state(plan.in_c, input);
  bool spatial = true;
  std::size_t h = plan.in_h, w = plan.in_w;
  int frac = plan.input_frac;

  const auto violation = [&report](std::size_t step, const std::string& what) {
    report.violations.push_back("step " + std::to_string(step) + ": " + what);
  };

  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    StepBounds row;
    row.step = i;
    row.label = s.label;
    row.kind = s.kind;
    row.in_frac = s.in_frac;
    row.out_frac = s.out_frac;

    if (s.in_frac != frac) {
      violation(i, "radix chain break: step expects <8," +
                       std::to_string(s.in_frac) + "> but receives <8," +
                       std::to_string(frac) + ">");
    }

    bool overflow = false;
    switch (s.kind) {
      case StepKind::kConv:
      case StepKind::kFullyConnected: {
        const bool conv = s.kind == StepKind::kConv;
        const std::size_t patch = conv ? s.in_c * s.kernel * s.kernel
                                       : s.in_features;
        const std::size_t outputs = conv ? s.out_c : s.out_features;
        if (s.weights.size() != outputs * patch ||
            s.bias.size() != outputs) {
          throw std::invalid_argument(
              "analyze_plan: step " + std::to_string(i) +
              ": weight/bias tables not built (run pass_build_tables "
              "before analyze)");
        }
        if (conv ? state.size() != s.in_c : state.size() != patch) {
          throw std::invalid_argument(
              "analyze_plan: step " + std::to_string(i) + ": input " +
              (conv ? "channel" : "feature") + " count mismatch");
        }
        const std::vector<bool> maybe_pad =
            conv ? maybe_padded_taps(s) : std::vector<bool>(patch, false);
        const std::size_t kk = conv ? s.kernel * s.kernel : 1;

        Interval dot_hull{0, 0};
        Interval routed_hull{0, 0};
        std::int64_t clip = 0;
        std::vector<Interval> next(outputs);
        bool first = true;
        for (std::size_t oc = 0; oc < outputs; ++oc) {
          const std::int32_t* wrow = s.weights.data() + oc * patch;
          Interval dot{0, 0};
          for (std::size_t k = 0; k < patch; ++k) {
            const Interval& in = conv ? state[k / kk] : state[k];
            const std::int64_t a = static_cast<std::int64_t>(wrow[k]) * in.lo;
            const std::int64_t b = static_cast<std::int64_t>(wrow[k]) * in.hi;
            Interval contrib{std::min(a, b), std::max(a, b)};
            if (maybe_pad[k]) contrib = contrib.hull({0, 0});
            dot.lo = sat_add(dot.lo, contrib.lo, overflow);
            dot.hi = sat_add(dot.hi, contrib.hi, overflow);
          }
          const Interval routed =
              route_interval(dot, s.in_frac, s.out_frac, s.bias[oc], overflow);
          add_clip(clip, clip_excess(routed));
          next[oc] = saturate8(routed);
          if (first) {
            dot_hull = dot;
            routed_hull = routed;
            first = false;
          } else {
            dot_hull = dot_hull.hull(dot);
            routed_hull = routed_hull.hull(routed);
          }
        }

        row.dot = dot_hull;
        row.routed = routed_hull;
        row.accumulator_bits = bits_needed(dot_hull);
        row.int32_dot = patch <= compile::kI32SafePatch;
        row.clip_mass = clip;

        if (overflow) {
          violation(i, "int64 model-carrier overflow in the dot/route chain "
                       "(radix realignment by " +
                           std::to_string(std::max(
                               0, s.out_frac - s.in_frac -
                                      hw::kProductFracBits)) +
                           " bits would throw at runtime)");
        }
        if (row.accumulator_bits > options.accumulator_bits) {
          violation(i, "accumulator overflow: worst-case dot " +
                           interval_str(dot_hull) + " needs " +
                           std::to_string(row.accumulator_bits) +
                           " bits, register has " +
                           std::to_string(options.accumulator_bits));
        }
        if (row.int32_dot &&
            !(hw::fits_bits(dot_hull.lo, 32) &&
              hw::fits_bits(dot_hull.hi, 32))) {
          violation(i, "int32 fast-dot path can wrap: worst-case dot " +
                           interval_str(dot_hull));
        }

        // Per-output-channel (or per-feature) state keeps downstream
        // bounds tight.
        state = std::move(next);
        if (conv) {
          h = s.out_h;
          w = s.out_w;
        } else {
          spatial = false;
        }
        row.out = state.empty() ? Interval{0, 0} : state.front();
        for (const Interval& iv : state) row.out = row.out.hull(iv);
        break;
      }
      case StepKind::kPool: {
        std::int64_t clip = 0;
        for (Interval& iv : state) {
          iv = pool_interval(s.pool, iv, s.in_frac, s.in_h, s.in_w, s.out_h,
                             s.out_w, clip, overflow);
        }
        row.clip_mass = clip;
        h = s.out_h;
        w = s.out_w;
        row.out = state.empty() ? Interval{0, 0} : state.front();
        for (const Interval& iv : state) row.out = row.out.hull(iv);
        break;
      }
      case StepKind::kRelu: {
        std::int64_t clip = 0;
        for (Interval& iv : state) {
          const Interval rectified{std::max<std::int64_t>(0, iv.lo),
                                   std::max<std::int64_t>(0, iv.hi)};
          iv = convert_interval(rectified, s.in_frac, s.out_frac, clip,
                                overflow);
        }
        row.clip_mass = clip;
        row.out = state.empty() ? Interval{0, 0} : state.front();
        for (const Interval& iv : state) row.out = row.out.hull(iv);
        break;
      }
      case StepKind::kFlatten: {
        std::int64_t clip = 0;
        std::vector<Interval> features;
        features.reserve(state.size() * h * w);
        for (const Interval& channel : state) {
          Interval iv = channel;
          if (s.out_frac != s.in_frac) {
            iv = convert_interval(iv, s.in_frac, s.out_frac, clip, overflow);
          }
          features.insert(features.end(), h * w, iv);
        }
        state = std::move(features);
        spatial = false;
        row.clip_mass = clip;
        row.out = state.empty() ? Interval{0, 0} : state.front();
        for (const Interval& iv : state) row.out = row.out.hull(iv);
        break;
      }
    }

    if (overflow && s.kind != StepKind::kConv &&
        s.kind != StepKind::kFullyConnected) {
      violation(i, "int64 model-carrier overflow in a code conversion "
                   "(convert_code would throw at runtime)");
    }
    if (options.fail_on_clip && row.clip_mass > 0) {
      violation(i, "saturation: worst-case clip mass " +
                       std::to_string(row.clip_mass) + " code units");
    }
    add_clip(report.total_clip_mass, row.clip_mass);
    frac = s.out_frac;
    report.steps.push_back(std::move(row));
  }

  (void)spatial;
  return report;
}

std::string AnalysisReport::table() const {
  util::TablePrinter table("plan bounds: " + model);
  table.set_header({"step", "kind", "label", "frac m->n", "dot range",
                    "acc bits", "routed range", "out codes", "clip"});
  for (const StepBounds& row : steps) {
    const bool mac = row.kind == StepKind::kConv ||
                     row.kind == StepKind::kFullyConnected;
    table.add_row(
        {std::to_string(row.step), kind_name(row.kind), row.label,
         std::to_string(row.in_frac) + "->" + std::to_string(row.out_frac),
         mac ? interval_str(row.dot) : "-",
         mac ? std::to_string(row.accumulator_bits) +
                   (row.int32_dot ? " (i32)" : " (i64)")
             : "-",
         mac ? interval_str(row.routed) : "-", interval_str(row.out),
         std::to_string(row.clip_mass)});
  }
  std::ostringstream out;
  out << table.to_string();
  if (!violations.empty()) {
    out << "violations:\n";
    for (const std::string& v : violations) out << "  ! " << v << "\n";
  }
  return out.str();
}

std::string AnalysisReport::summary() const {
  std::ostringstream out;
  out << "plan '" << model << "': " << steps.size() << " steps, ";
  if (ok()) {
    out << "proven overflow-free";
    if (total_clip_mass == 0) {
      out << ", saturation-free";
    } else {
      out << ", worst-case clip mass " << total_clip_mass;
    }
  } else {
    out << violations.size() << " violation(s)";
  }
  return out.str();
}

PlanRejectedError::PlanRejectedError(AnalysisReport report)
    : std::runtime_error("plan analyzer: '" + report.model + "' rejected: " +
                         (report.violations.empty()
                              ? std::string("unknown")
                              : report.violations.front()) +
                         (report.violations.size() > 1
                              ? " (+" +
                                    std::to_string(report.violations.size() -
                                                   1) +
                                    " more)"
                              : "")),
      report_(std::move(report)) {}

void pass_analyze(const CompiledPlan& plan) {
  AnalysisReport report = analyze_plan(plan);
  if (!report.ok()) throw PlanRejectedError(std::move(report));
}

}  // namespace mfdfp::analysis
