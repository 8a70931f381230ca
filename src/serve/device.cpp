#include "serve/device.hpp"

#include <algorithm>
#include <stdexcept>

#include "compile/passes.hpp"
#include "compile/plan_cache.hpp"
#include "compile/plan_executor.hpp"
#include "hw/cycle_model.hpp"

namespace mfdfp::serve {

SimulatedAcceleratorBackend::SimulatedAcceleratorBackend(
    std::vector<hw::QNetDesc> members, hw::AcceleratorConfig accel,
    const DeviceSpec& device, std::size_t in_c, std::size_t in_h,
    std::size_t in_w,
    const std::shared_ptr<compile::PlanCache>& plan_cache)
    : accel_(accel) {
  if (members.empty()) {
    throw std::invalid_argument(
        "SimulatedAcceleratorBackend: no model members");
  }
  if (!device.valid()) {
    throw std::invalid_argument(
        "SimulatedAcceleratorBackend: device \"" + device.name +
        "\" has speed_factor <= 0");
  }

  plans_.reserve(members.size());
  for (const hw::QNetDesc& desc : members) {
    plans_.push_back(plan_cache != nullptr
                         ? plan_cache->get_or_compile(desc, in_c, in_h, in_w)
                         : compile::compile_qnet(desc, in_c, in_h, in_w));
    profilers_.push_back(std::make_unique<hw::LayerProfiler>(
        desc, in_c, in_h, in_w, accel_));
    // This member's modeled per-inference cost, read from the profiler's
    // static tables (the same cycle/traffic models, computed once).
    // Ensemble members run on parallel processing units, so batch latency
    // is the max over members while DMA is their sum.
    const hw::LayerProfile profile = profilers_.back()->snapshot();
    hw::CycleReport cycles;
    cycles.total_cycles = profile.cycles_per_sample_total;
    sample_us_ = std::max(sample_us_,
                          cycles.microseconds(accel_, device.speed_factor));
    for (const hw::LayerProfileRow& row : profile.rows) {
      weight_dma_bytes_ += static_cast<double>(row.weight_bytes);
      act_dma_bytes_ += static_cast<double>(row.act_bytes_per_sample);
    }
  }
}

std::vector<hw::LayerProfile> SimulatedAcceleratorBackend::layer_profiles()
    const {
  std::vector<hw::LayerProfile> profiles;
  profiles.reserve(profilers_.size());
  for (const auto& profiler : profilers_) {
    profiles.push_back(profiler->snapshot());
  }
  return profiles;
}

BatchResult SimulatedAcceleratorBackend::execute(
    const tensor::Tensor& stacked, hw::ExecScratch& scratch,
    const ExecHints& /*hints*/) const {
  const std::size_t batch_size = stacked.shape().n();
  BatchResult result;
  // Every member executes its deploy-time plan — bit-identical to run() on
  // the member's desc — and records per-layer host time in its profiler.
  result.logits =
      compile::run_ensemble_batch(plans_, stacked, scratch, profilers_);
  // Each processing unit streams its member's samples back to back;
  // sample_us_ already carries the device's speed_factor.
  result.sim_accel_us = static_cast<double>(batch_size) * sample_us_;
  result.sim_dma_bytes = batch_dma_bytes(batch_size);
  return result;
}

double SimulatedAcceleratorBackend::batch_dma_bytes(
    std::size_t batch_size) const {
  // Weights cross the DMA once per batch (they stay resident in the weight
  // buffer across samples); activations stream per sample.
  return weight_dma_bytes_ + static_cast<double>(batch_size) * act_dma_bytes_;
}

}  // namespace mfdfp::serve
