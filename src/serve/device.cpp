#include "serve/device.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "compile/passes.hpp"
#include "compile/plan_cache.hpp"
#include "compile/plan_executor.hpp"
#include "hw/cycle_model.hpp"
#include "hw/traffic_model.hpp"

namespace mfdfp::serve {

SimulatedAcceleratorBackend::SimulatedAcceleratorBackend(
    std::vector<hw::QNetDesc> members, hw::AcceleratorConfig accel,
    DeviceSpec device, std::size_t in_c, std::size_t in_h, std::size_t in_w,
    const compile::CompileOptions& compile,
    const std::shared_ptr<compile::PlanCache>& plan_cache)
    : device_(std::move(device)), accel_(accel) {
  if (members.empty()) {
    throw std::invalid_argument(
        "SimulatedAcceleratorBackend: no model members");
  }
  if (!device_.valid()) {
    throw std::invalid_argument(
        "SimulatedAcceleratorBackend: device \"" + device_.name +
        "\" has speed_factor <= 0");
  }

  // Device *class* key for plan sharing: the plan's content depends only on
  // what the compiler can see of the device, so same-speed replicas (dev0,
  // dev1, ...) share one artifact while heterogeneous placements get
  // per-class entries.
  std::ostringstream key;
  key << "sf=" << device_.speed_factor;
  const std::string device_key = key.str();

  plans_.reserve(members.size());
  for (const hw::QNetDesc& desc : members) {
    plans_.push_back(plan_cache != nullptr
                         ? plan_cache->get_or_compile(desc, in_c, in_h, in_w,
                                                      device_key, compile)
                         : compile::compile_qnet(desc, in_c, in_h, in_w,
                                                 compile));
    // Precompute this member's modeled per-inference cost. Ensemble members
    // run on parallel processing units, so batch latency is the max over
    // members while DMA is their sum.
    const std::vector<hw::LayerWork> work =
        hw::workload_from_qnet(desc, in_c, in_h, in_w);
    const hw::CycleReport cycles = hw::count_cycles(work, accel_);
    sample_us_ = std::max(
        sample_us_, cycles.microseconds(accel_, device_.speed_factor));
    const hw::TrafficReport traffic = hw::dma_traffic(work, accel_);
    for (const hw::LayerTraffic& layer : traffic.layers) {
      weight_dma_bytes_ += static_cast<double>(layer.weight_bytes);
      act_dma_bytes_ +=
          static_cast<double>(layer.input_bytes + layer.output_bytes);
    }
    profilers_.push_back(std::make_unique<hw::LayerProfiler>(
        desc, in_c, in_h, in_w, accel_));
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
  // Member logits are averaged exactly as hw::run_ensemble does.
  result.logits = compile::run_plan_batch(*plans_.front(), stacked, scratch,
                                          profilers_.front().get());
  for (std::size_t m = 1; m < plans_.size(); ++m) {
    result.logits.add(compile::run_plan_batch(*plans_[m], stacked, scratch,
                                              profilers_[m].get()));
  }
  if (plans_.size() > 1) {
    result.logits.scale(1.0f / static_cast<float>(plans_.size()));
  }
  result.sim_accel_us = batch_us(batch_size);
  result.sim_dma_bytes = batch_dma_bytes(batch_size);
  return result;
}

double SimulatedAcceleratorBackend::batch_us(std::size_t batch_size) const {
  // Each processing unit streams its member's samples back to back;
  // sample_us_ already carries the device's speed_factor.
  return static_cast<double>(batch_size) * sample_us_;
}

double SimulatedAcceleratorBackend::batch_dma_bytes(
    std::size_t batch_size) const {
  // Weights cross the DMA once per batch (they stay resident in the weight
  // buffer across samples); activations stream per sample.
  return weight_dma_bytes_ + static_cast<double>(batch_size) * act_dma_bytes_;
}

}  // namespace mfdfp::serve
