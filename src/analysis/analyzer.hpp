// Deploy-time numeric static analysis of CompiledPlans.
//
// An interval-domain abstract interpreter over the plan's steps: starting
// from the 8-bit input code range, it propagates a per-channel (spatial) /
// per-feature (flattened) [min, max] code interval through every pow2
// weight dot, bias add, route_sum rescaling, ReLU, pool, and flatten —
// mirroring the exact integer arithmetic of hw/kernels + hw/datapath, so
// the derived bounds are sound for *every* possible input image:
//
//   * conv / fc dots are bounded exactly per output channel: each
//     predecoded ±2^(7+e) weight contributes max(w·lo, w·hi) to the upper
//     bound and min(w·lo, w·hi) to the lower (taps that can be padded for
//     some output pixel widen their contribution with 0);
//   * route_sum is modeled shift-for-shift: radix alignment onto the
//     common grid, bias add, round-half-away, 8-bit saturation — the
//     interval before saturation yields the worst-case clip mass;
//   * max pool is monotone (interval-preserving + convert_code); avg pool
//     re-runs the kernel's exact decode→mean→encode expression at the
//     interval endpoints (every float op in it is monotone in the tap sum).
//
// What it proves (violations reject the plan):
//   * the hw::kAccumulatorBits-wide accumulator register cannot overflow
//     for the deployed geometry — the runtime check_width can never fire;
//   * the int32 fast-dot path the plan executor selects is exact;
//   * every radix realignment shift fits the int64 model carrier
//     (shift_left_checked cannot throw), i.e. the DFP fraction chain is
//     consistent end to end;
//   * (optionally) no layer can saturate — otherwise the report carries
//     the worst-case clip mass per layer.
//
// Wired into PassPipeline::standard as the `analyze` pass
// (CompileOptions::analyze, default on): an unsafe plan is rejected at
// deploy() before it can serve a single request. The standalone `planlint`
// tool (tools/planlint.cpp) prints the per-layer bound table for every
// zoo model; docs/static-analysis.md explains how to read it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "hw/datapath.hpp"

namespace mfdfp::analysis {

/// Closed integer interval [lo, hi] of activation codes / accumulator
/// values. Invariant: lo <= hi.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] bool contains(std::int64_t v) const noexcept {
    return lo <= v && v <= hi;
  }
  [[nodiscard]] Interval hull(const Interval& other) const noexcept {
    return {lo < other.lo ? lo : other.lo, hi > other.hi ? hi : other.hi};
  }
  [[nodiscard]] bool operator==(const Interval&) const noexcept = default;
};

/// Smallest two's-complement width (in bits, >= 1) that holds both
/// endpoints of `iv`; 64 when only the full carrier does.
[[nodiscard]] int bits_needed(const Interval& iv) noexcept;

/// Analyzer knobs. Defaults model the deployed hardware exactly.
struct AnalysisOptions {
  /// Input activation code range. Default: the full 8-bit code range the
  /// DMA can deliver. Narrow it when the input format provably cannot
  /// reach the extremes (tightens every downstream bound).
  Interval input{hw::min_for_bits(hw::kInputBits),
                 hw::max_for_bits(hw::kInputBits)};
  /// Accumulator register width to prove against (tests tighten this to
  /// exercise the overflow check without multi-GB weight tables).
  int accumulator_bits = hw::kAccumulatorBits;
  /// When true, a layer whose routed interval exceeds the 8-bit output
  /// range (clip mass > 0) is a violation instead of a report line.
  bool fail_on_clip = false;
};

/// Per-step analysis row — one line of the planlint bound table.
struct StepBounds {
  std::size_t step = 0;
  std::string label;
  compile::StepKind kind = compile::StepKind::kConv;
  int in_frac = 0;
  int out_frac = 0;
  /// Worst-case raw dot-product range across output channels (conv/fc
  /// steps; zero interval otherwise) — what the accumulator must hold.
  Interval dot;
  /// Two's-complement bits the worst-case dot needs (vs accumulator_bits).
  int accumulator_bits = 0;
  /// True when the plan executor takes the int32 dense-dot fast path.
  bool int32_dot = false;
  /// Routed value range *before* 8-bit saturation (conv/fc steps).
  Interval routed;
  /// Final output code range of the step.
  Interval out;
  /// Worst-case saturation excess in code units: how far the routed (or
  /// converted) value can land outside the 8-bit range. 0 = provably
  /// saturation-free.
  std::int64_t clip_mass = 0;
};

/// The analyzer's verdict: per-step bounds plus every violated proof
/// obligation. `ok()` plans cannot overflow any accumulator, wrap any
/// int32 fast path, or throw from any radix realignment at runtime.
struct AnalysisReport {
  std::string model;
  std::vector<StepBounds> steps;
  std::vector<std::string> violations;
  /// Sum of per-step clip masses (0 = the whole plan is saturation-free).
  std::int64_t total_clip_mass = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// Aligned per-layer bound table (the planlint output).
  [[nodiscard]] std::string table() const;
  /// One-line verdict for logs.
  [[nodiscard]] std::string summary() const;
};

/// Abstract-interprets `plan` (tables must be built, i.e. post
/// pass_build_tables). Never throws on unsafe plans — violations are
/// reported; throws std::invalid_argument only on structurally broken
/// plans the verifier would reject anyway.
[[nodiscard]] AnalysisReport analyze_plan(const compile::CompiledPlan& plan,
                                          const AnalysisOptions& options = {});

/// Thrown by the `analyze` pass (and thus by deploy()) when a plan fails
/// a proof obligation. Carries the full report for diagnostics.
class PlanRejectedError : public std::runtime_error {
 public:
  explicit PlanRejectedError(AnalysisReport report);

  [[nodiscard]] const AnalysisReport& report() const noexcept {
    return report_;
  }

 private:
  AnalysisReport report_;
};

/// The PassPipeline `analyze` pass body: analyze with default options and
/// throw PlanRejectedError unless the plan is proven safe.
void pass_analyze(const compile::CompiledPlan& plan);

}  // namespace mfdfp::analysis
