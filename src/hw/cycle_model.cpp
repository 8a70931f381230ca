#include "hw/cycle_model.hpp"

#include <stdexcept>

#include "hw/kernels.hpp"

namespace mfdfp::hw {
namespace {

[[nodiscard]] std::uint64_t ceil_div(std::uint64_t a,
                                     std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace

std::vector<LayerWork> workload_from_qnet(const QNetDesc& desc,
                                          std::size_t in_c, std::size_t in_h,
                                          std::size_t in_w) {
  std::vector<LayerWork> work;
  std::size_t c = in_c, h = in_h, w = in_w;
  std::size_t index = 0;
  for (const QLayer& layer : desc.layers) {
    LayerWork lw;
    lw.name = "L" + std::to_string(index++);
    if (const auto* conv = std::get_if<QConv>(&layer)) {
      if (conv->in_c != c) {
        throw std::invalid_argument("workload_from_qnet: channel mismatch");
      }
      const std::size_t oh = window_extent(h, conv->kernel, conv->stride,
                                           conv->pad, "workload_from_qnet");
      const std::size_t ow = window_extent(w, conv->kernel, conv->stride,
                                           conv->pad, "workload_from_qnet");
      lw.name += ":conv";
      lw.kind = LayerWork::Kind::kConv;
      lw.output_pixels = oh * ow;
      lw.out_channels = conv->out_c;
      lw.patch = conv->in_c * conv->kernel * conv->kernel;
      c = conv->out_c;
      h = oh;
      w = ow;
    } else if (const auto* fc = std::get_if<QFullyConnected>(&layer)) {
      lw.name += ":fc";
      lw.kind = LayerWork::Kind::kFullyConnected;
      lw.output_pixels = 1;
      lw.out_channels = fc->out_features;
      lw.patch = fc->in_features;
      c = fc->out_features;
      h = w = 1;
    } else if (const auto* pool = std::get_if<QPool>(&layer)) {
      const std::size_t oh = window_extent(h, pool->window, pool->stride,
                                           pool->pad, "workload_from_qnet");
      const std::size_t ow = window_extent(w, pool->window, pool->stride,
                                           pool->pad, "workload_from_qnet");
      lw.name += pool->is_max ? ":maxpool" : ":avgpool";
      lw.kind = LayerWork::Kind::kPool;
      lw.output_pixels = oh * ow;
      lw.out_channels = c;
      lw.patch = pool->window * pool->window;
      h = oh;
      w = ow;
    } else if (std::holds_alternative<QRelu>(layer)) {
      lw.name += ":relu";
      lw.kind = LayerWork::Kind::kElementwise;
      lw.output_pixels = h * w;
      lw.out_channels = c;
      lw.patch = 1;
    } else {  // flatten: free (pure wiring)
      continue;
    }
    work.push_back(std::move(lw));
  }
  return work;
}

std::vector<LayerWork> paper_cifar10_workload() {
  using K = LayerWork::Kind;
  // cuda-convnet on 3x32x32: conv5/pad2 32ch -> maxpool3s2 -> conv5 32ch ->
  // avgpool3s2 -> conv5 64ch -> avgpool3s2 -> fc10. Pool output dims follow
  // Caffe's ceil-mode (32->16->15... we use the standard 32/16/8 tiling of
  // the Caffe example: pool output = ceil((in - k)/s) + 1).
  return {
      {"conv1", K::kConv, 32 * 32, 32, 3 * 25},
      {"pool1", K::kPool, 16 * 16, 32, 9},
      {"conv2", K::kConv, 16 * 16, 32, 32 * 25},
      {"pool2", K::kPool, 8 * 8, 32, 9},
      {"conv3", K::kConv, 8 * 8, 64, 32 * 25},
      {"pool3", K::kPool, 4 * 4, 64, 9},
      {"fc", K::kFullyConnected, 1, 10, 64 * 4 * 4},
  };
}

std::vector<LayerWork> paper_imagenet_workload() {
  using K = LayerWork::Kind;
  // AlexNet without grouping, LRN removed (paper Section 6.1).
  return {
      {"conv1", K::kConv, 55 * 55, 96, 3 * 121},
      {"pool1", K::kPool, 27 * 27, 96, 9},
      {"conv2", K::kConv, 27 * 27, 256, 96 * 25},
      {"pool2", K::kPool, 13 * 13, 256, 9},
      {"conv3", K::kConv, 13 * 13, 384, 256 * 9},
      {"conv4", K::kConv, 13 * 13, 384, 384 * 9},
      {"conv5", K::kConv, 13 * 13, 256, 384 * 9},
      {"pool5", K::kPool, 6 * 6, 256, 9},
      {"fc6", K::kFullyConnected, 1, 4096, 256 * 6 * 6},
      {"fc7", K::kFullyConnected, 1, 4096, 4096},
      {"fc8", K::kFullyConnected, 1, 1000, 4096},
  };
}

CycleReport count_cycles(const std::vector<LayerWork>& workload,
                         const AcceleratorConfig& config) {
  const std::uint64_t neurons = config.neurons_per_pu;
  const std::uint64_t synapses = config.synapses_per_neuron;
  if (neurons == 0 || synapses == 0) {
    throw std::invalid_argument("count_cycles: bad config");
  }
  const auto drain = static_cast<std::uint64_t>(config.pipeline_depth());

  CycleReport report;
  for (const LayerWork& lw : workload) {
    LayerCycles lc;
    lc.name = lw.name;
    lc.macs = lw.macs();
    switch (lw.kind) {
      case LayerWork::Kind::kConv:
      case LayerWork::Kind::kFullyConnected:
        lc.cycles = lw.output_pixels * ceil_div(lw.out_channels, neurons) *
                    ceil_div(lw.patch, synapses);
        break;
      case LayerWork::Kind::kPool:
        // One window tile per cycle across the neuron lanes.
        lc.cycles = lw.output_pixels * ceil_div(lw.out_channels, neurons) *
                    ceil_div(lw.patch, synapses);
        break;
      case LayerWork::Kind::kElementwise:
        // Streams through the NL units, `neurons` values per cycle.
        lc.cycles = ceil_div(lw.output_pixels * lw.out_channels, neurons);
        break;
    }
    lc.cycles += drain;
    report.total_cycles += lc.cycles;
    report.layers.push_back(std::move(lc));
  }
  return report;
}

double energy_uj(const CycleReport& cycles, const AcceleratorConfig& config) {
  const CostBreakdown cost = cost_model(config);
  // mW * s = uJ * 1e-3; convert explicitly: P[mW] * t[s] * 1e3 = uJ.
  return cost.total_power_mw() * cycles.seconds(config) * 1e3;
}

}  // namespace mfdfp::hw
