// Cycle-accurate (loop-nest level) latency model of the tile-based
// accelerator, plus the derived time/energy metrics of paper Table 2.
//
// Scheduling model (DianNao-style, Section 5): each cycle, one processing
// unit evaluates `neurons` output neurons over `synapses` inputs. A conv
// layer therefore takes
//   out_h*out_w * ceil(out_c/neurons) * ceil(in_c*k*k/synapses)
// cycles, an FC layer ceil(out/neurons) * ceil(in/synapses), and a pool
// layer streams its windows through the (otherwise idle) datapath at one
// window-tile per cycle. Each layer pays a pipeline-drain cost equal to the
// datapath depth, which is where the (tiny) FP-vs-MF-DFP time difference in
// Table 2 comes from: the FP multiplier is deeply pipelined, the shifter is
// combinational. DMA transfers are assumed perfectly double-buffered
// (paper reports identical times for both precisions, implying
// compute-bound operation).
//
// An ensemble maps one member network per processing unit, so its latency is
// the maximum over members (== the single-network latency for identical
// topologies).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/qnet.hpp"

namespace mfdfp::hw {

/// Workload of one layer, independent of data precision.
struct LayerWork {
  enum class Kind { kConv, kFullyConnected, kPool, kElementwise };
  std::string name;
  Kind kind = Kind::kConv;
  std::uint64_t output_pixels = 0;   ///< out_h*out_w (1 for FC)
  std::uint64_t out_channels = 0;    ///< out_c (out_features for FC)
  std::uint64_t patch = 0;           ///< in_c*k*k (in_features for FC;
                                     ///< window^2 for pool)
  [[nodiscard]] std::uint64_t macs() const noexcept {
    return output_pixels * out_channels * patch;
  }
};

/// Derives the workload list from a deployment image, given the input
/// geometry (channels, height, width). Throws std::invalid_argument on a
/// channel mismatch or a conv/pool window with no valid output extent (see
/// window_extent in hw/kernels.hpp).
[[nodiscard]] std::vector<LayerWork> workload_from_qnet(
    const QNetDesc& desc, std::size_t in_c, std::size_t in_h,
    std::size_t in_w);

/// The paper's CIFAR-10 network (cuda-convnet: 3x32x32, conv5x32 maxpool3s2,
/// conv5x32 avgpool3s2, conv5x64 avgpool3s2, fc10) as a workload list —
/// used to cross-check the model against Table 2's absolute times.
[[nodiscard]] std::vector<LayerWork> paper_cifar10_workload();

/// AlexNet (ImageNet 3x227x227, no grouping, LRN removed) workload list.
[[nodiscard]] std::vector<LayerWork> paper_imagenet_workload();

struct LayerCycles {
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t macs = 0;
};

struct CycleReport {
  std::vector<LayerCycles> layers;
  std::uint64_t total_cycles = 0;

  [[nodiscard]] double seconds(const AcceleratorConfig& config) const {
    return static_cast<double>(total_cycles) / config.clock_hz;
  }
  [[nodiscard]] double microseconds(const AcceleratorConfig& config) const {
    return seconds(config) * 1e6;
  }

  /// Speed-scaled variants for differently-provisioned device instances
  /// (serve::DeviceSpec): the effective clock is clock_hz * speed_factor,
  /// so a 2x device finishes the same cycle count in half the time.
  /// Non-positive factors fall back to 1 (the baseline provisioning).
  [[nodiscard]] double seconds(const AcceleratorConfig& config,
                               double speed_factor) const {
    return seconds(config) / (speed_factor > 0.0 ? speed_factor : 1.0);
  }
  [[nodiscard]] double microseconds(const AcceleratorConfig& config,
                                    double speed_factor) const {
    return seconds(config, speed_factor) * 1e6;
  }
};

/// Counts cycles for one inference of the workload on `config`.
[[nodiscard]] CycleReport count_cycles(const std::vector<LayerWork>& workload,
                                       const AcceleratorConfig& config);

/// Energy per inference in microjoules: total power x latency.
[[nodiscard]] double energy_uj(const CycleReport& cycles,
                               const AcceleratorConfig& config);

}  // namespace mfdfp::hw
