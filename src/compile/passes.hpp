// Deploy-time compilation of a QNetDesc into a CompiledPlan.
//
// Compilation takes no options. It runs three fixed stages in order:
//
//   lower       walk the layer list once into 1:1 PlanSteps with fully
//               derived geometry and radix chain; each conv and FC step
//               gets its predecoded +/-2^(7+e) int16 weights (conv rows
//               channels-last) and bias codes, and each conv its run-offset
//               row into the zero-padded, channels-last sample.
//   verify      re-derive the shape/radix chain step by step and check every
//               lowered payload against it (each run of each conv's last
//               window stays inside the padded sample, and every output map
//               fits 32 bits); throws std::runtime_error on any
//               mismatch — a plan that verifies cannot index out of bounds
//               or mix radices at run time.
//   analyze     numeric static analysis (src/analysis): prove the
//               accumulator, int32 dot path, and radix chain safe.
//
// compile_qnet() runs all three and is what serving and evaluation use.
// lower_qnet() stops after verify, for planlint and tests that analyze a
// plan themselves.
#pragma once

#include <memory>

#include "compile/plan.hpp"
#include "hw/qnet.hpp"

namespace mfdfp::compile {

/// Lowers `desc` 1:1 into a verified but unanalyzed CompiledPlan (geometry,
/// radix chain, weight/bias tables and run rows built; content_hash left 0).
/// Throws std::invalid_argument on a desc the geometry walk rejects
/// (including a zero stride or window, a padded axis, padded sample or
/// output map past 32 bits, or a short weight stream), and std::out_of_range (from pass_verify) on a
/// radix outside hw::check_radix's bound.
[[nodiscard]] CompiledPlan lower_qnet(const hw::QNetDesc& desc,
                                      std::size_t in_c, std::size_t in_h,
                                      std::size_t in_w);

/// Re-derives the plan's geometry and radix chain and checks every payload
/// against it; throws std::runtime_error on any mismatch and
/// std::out_of_range on a radix hw::check_radix rejects.
void pass_verify(const CompiledPlan& plan);

/// Full deploy-time compilation: lower_qnet, the content hash, then
/// analysis::pass_analyze. The returned plan is immutable and safe to share
/// across replicas/tenants/threads.
[[nodiscard]] std::shared_ptr<const CompiledPlan> compile_qnet(
    const hw::QNetDesc& desc, std::size_t in_c, std::size_t in_h,
    std::size_t in_w);

}  // namespace mfdfp::compile
