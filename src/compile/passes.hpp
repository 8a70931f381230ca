// PassPipeline: the deploy-time lowering of a QNetDesc into a CompiledPlan.
//
// Mirrors the graph-transformer shape of NPU compilers: a `lower` stage
// turns the layer list into 1:1 PlanSteps with fully derived geometry, then
// named passes annotate the steps in order (the step list itself stays one
// step per desc layer; every conv runs im2col):
//
//   specialize  SupportsGeometry: a conv whose gather table has no padded
//               tap (pad == 0) selects the no-padding fast kernel variant;
//               everything else keeps the generic padded-tap fallback.
//   tables      predecode +/-2^(7+e) integer weights and bias codes, build
//               the per-pixel gather tables.
//   verify      re-derive the shape/radix chain step by step and check every
//               lowered payload against it; throws std::runtime_error on
//               any mismatch — a plan that verifies cannot index out of
//               bounds or mix radices at run time.
//   analyze     numeric static analysis (src/analysis): prove the
//               accumulator, int32 dot path, and radix chain safe.
//
// compile_qnet() is the front door; the pipeline object is exposed so tests
// can run truncated/custom pipelines.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "hw/qnet.hpp"

namespace mfdfp::compile {

class PassPipeline {
 public:
  /// A pass reads the source module (the desc) and rewrites the plan.
  using PassFn = std::function<void(const hw::QNetDesc&, CompiledPlan&)>;

  /// Appends a named pass; run() executes passes in insertion order.
  void add(std::string name, PassFn fn);

  /// Runs every pass over `draft` in order, recording names in passes_run,
  /// and refreshes the plan's stats. Throws whatever a pass throws (the
  /// verifier uses std::runtime_error).
  [[nodiscard]] CompiledPlan run(const hw::QNetDesc& desc,
                                 CompiledPlan draft) const;

  [[nodiscard]] std::size_t pass_count() const noexcept {
    return passes_.size();
  }

  /// The standard deploy pipeline for `options` (ablated passes are simply
  /// not added; the verifier always is).
  [[nodiscard]] static PassPipeline standard(const CompileOptions& options);

 private:
  struct Pass {
    std::string name;
    PassFn fn;
  };
  std::vector<Pass> passes_;
};

/// Lowers `desc` 1:1 into an unoptimized CompiledPlan draft (geometry and
/// radix chain fully derived; no tables or specialization yet). Throws
/// std::invalid_argument on a desc the geometry walk rejects.
[[nodiscard]] CompiledPlan lower_qnet(const hw::QNetDesc& desc,
                                      std::size_t in_c, std::size_t in_h,
                                      std::size_t in_w);

/// The individual passes, exposed for truncated pipelines in tests.
void pass_specialize(CompiledPlan& plan);
void pass_build_tables(const hw::QNetDesc& desc, CompiledPlan& plan);
void pass_verify(const CompiledPlan& plan);

/// Full deploy-time compilation: lower + the standard pipeline for
/// `options`. The returned plan is immutable and safe to share across
/// replicas/tenants/threads.
[[nodiscard]] std::shared_ptr<const CompiledPlan> compile_qnet(
    const hw::QNetDesc& desc, std::size_t in_c, std::size_t in_h,
    std::size_t in_w, const CompileOptions& options = {});

}  // namespace mfdfp::compile
