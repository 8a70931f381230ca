// CompiledPlan: the immutable deploy-time artifact a QNet lowers into.
//
// The paper's accelerator wins because every structural decision — pow2/DFP
// decode, window layout, kernel shape — is fixed in silicon before the first
// sample arrives. The serving stack mirrors that: at deploy() time
// compile_qnet (compile/passes.hpp) lowers the QNetDesc into an ordered list
// of PlanSteps, one per desc layer, with predecoded +/-2^(7+e) int16
// weights and one kernel-length run-offset row per conv — so the per-batch
// layer loop re-makes none of those decisions. Like the accelerator's input
// buffers, which feed the shift/adder array whole windows, a conv reads
// each sample through one zero-padded, channels-last int16 copy: every conv
// is a "valid" conv, a window is `kernel` contiguous runs, and no plan
// field grows with the output map. Activations between steps stay NCHW.
// Plans are shared immutably (shared_ptr<const CompiledPlan> out of
// compile/plan_cache.hpp): N replicas and shared-PU tenants execute one
// artifact, and an in-flight request keeps its plan alive across cache
// eviction or hot redeploy.
//
// Compiled plans are the only batched execution path. Execution of a plan
// (compile/plan_executor.hpp) is bit-identical to the reference
// AcceleratorExecutor::run() on the source desc: every lossy stage goes
// through the shared hw/kernels.hpp implementations, and the integer dot
// products are exact under any association, so im2col only reorders exact
// arithmetic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/qnet.hpp"

namespace mfdfp::compile {

/// What a lowered step executes (one step per desc layer).
enum class StepKind : std::uint8_t {
  kConv,
  kFullyConnected,
  kPool,
  kRelu,
  kFlatten,
};

/// One lowered, pre-resolved execution step.
struct PlanStep {
  StepKind kind = StepKind::kConv;
  /// Human-readable kernel identity, e.g. "conv5x5s1p2".
  std::string label;
  /// The QNetDesc layer this step lowers — the profiler row its host time
  /// is recorded against.
  std::size_t source_layer = 0;

  // --- Geometry (spatial steps; FC uses the feature fields) ---
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0, out_h = 0, out_w = 0;  ///< core-op output map
  std::size_t kernel = 0, stride = 1, pad = 0;
  std::size_t in_features = 0, out_features = 0;

  // --- Radix chain ---
  int in_frac = 0;   ///< m: radix of the step's input codes
  int out_frac = 0;  ///< n: radix of the step's output codes

  hw::QPool pool{};  ///< the pool of a kPool step

  // --- Lowered payload (built by lower_qnet) ---
  /// Weights predecoded to plain +/-2^(7+e) integer multipliers, row-major
  /// [out_c or out_features][patch or in_features]. A conv row is
  /// channels-last, [ky][kx][in_c] — the order of its patch row, and exact
  /// because a dot product is exact under any order. |w| <= 2^7, so int16
  /// holds every one exactly and each code x weight product fits 2^14 —
  /// the operand width of the executor's int16 multiply-add tile.
  std::vector<std::int16_t> weights;
  std::vector<std::int8_t> bias;  ///< bias codes, format <8, out_frac>
  /// Conv patch layout (conv steps): `kernel` run offsets ky*pw*in_c into
  /// one zero-padded, channels-last sample of (in_h+2p) x pw x in_c codes,
  /// pw = in_w+2p; each run is kernel*in_c contiguous codes. Output pixel
  /// (oy, ox) reads its window at origin (oy*s*pw + ox*s)*in_c.
  std::vector<std::uint32_t> taps;
};

/// Plan size figures — the columns `bench/ablation_compile` reports.
struct PlanStats {
  std::size_t steps = 0;
  /// Lowered payload: weight, bias and run-offset bytes over every step.
  std::size_t payload_bytes = 0;
};

/// The immutable deploy-time artifact. Built only by lower_qnet and
/// compile_qnet; everything downstream holds shared_ptr<const CompiledPlan>.
struct CompiledPlan {
  std::string model;
  int input_frac = 0;
  std::size_t in_c = 0, in_h = 0, in_w = 0;  ///< input geometry
  std::size_t out_features = 0;              ///< logits per sample
  std::vector<PlanStep> steps;
  /// FNV-1a over the source desc's topology + weight/bias streams (name
  /// excluded: identical models share a plan).
  std::uint64_t content_hash = 0;
  PlanStats stats;

  /// One line per step: kind, label, geometry — for logs/tests.
  [[nodiscard]] std::string describe() const;
};

/// Content identity of a deployment image: FNV-1a 64 over input_frac and
/// every layer's kind, geometry, radix, packed weights, and bias codes.
/// The model *name* is excluded so renamed-but-identical models share.
[[nodiscard]] std::uint64_t qnet_content_hash(const hw::QNetDesc& desc);

}  // namespace mfdfp::compile
