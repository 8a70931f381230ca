// Per-layer profiling of one deployed model member on the simulated
// accelerator: modeled cycles, DMA bytes, and datapath occupancy per layer,
// accumulated across every compiled-plan pass the backend serves
// (compile::run_plan_batch reports into it).
//
// The per-layer *modeled* numbers come from the same hw::CycleModel /
// hw::TrafficModel tables the serving cost accounting is priced on, captured
// once at construction — so a profile's per-sample cycle sum reconciles
// bit-exactly (integer ==) with CycleReport::total_cycles, and the
// accumulated totals are exactly samples x the per-sample table
// (tests/test_layer_profile.cpp enforces both). On top of the static tables
// the profiler accumulates what actually ran: passes, samples, per-layer
// host-side wall nanoseconds of the plan's kernels (where the *host* burns
// its time — distinct from where the modeled device burns cycles, which is
// the point of recording both). Every plan step maps to exactly one desc
// layer, so each row's host time is its own measurement, ReLU and pool
// rows included.
//
// Occupancy is the datapath utilization the layer achieves under the
// DianNao-style schedule: useful MACs / (compute cycles x neurons x
// synapses lanes). Pipeline-drain cycles count as idle (they are), so even
// a perfectly-tiled layer sits below 1.0; pool/elementwise layers stream
// through otherwise-idle datapath slots and are reported at 0.
//
// Thread-safety: record_pass / record_layer_host_ns are called concurrently
// from every engine worker sharing the plan — all accumulators are
// relaxed atomics. snapshot() is safe concurrently with recording and
// returns a stats-grade (monotonic counters, not an atomic cut) view.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/cycle_model.hpp"
#include "hw/qnet.hpp"

namespace mfdfp::hw {

/// One layer of a LayerProfile snapshot.
struct LayerProfileRow {
  std::string name;  ///< workload name ("L0:conv", "L2:maxpool", ...)
  LayerWork::Kind kind = LayerWork::Kind::kConv;

  // Static per-sample model (from CycleModel / TrafficModel).
  std::uint64_t cycles_per_sample = 0;  ///< includes pipeline drain
  std::uint64_t macs_per_sample = 0;
  std::uint64_t weight_bytes = 0;       ///< DMA, once per batch
  std::uint64_t act_bytes_per_sample = 0;  ///< DMA, input + output maps
  double occupancy = 0.0;               ///< useful MACs / datapath slots

  // Accumulated over every recorded pass.
  std::uint64_t cycles_total = 0;  ///< == samples x cycles_per_sample
  std::uint64_t host_ns_total = 0; ///< wall time of the layer's plan step
};

/// Consistent view of one member's accumulated profile.
struct LayerProfile {
  std::vector<LayerProfileRow> rows;
  std::uint64_t passes = 0;   ///< plan passes recorded
  std::uint64_t samples = 0;  ///< samples across those passes

  /// Per-sample total == CycleReport::total_cycles for the same workload
  /// and config, bit-exactly (same integer pipeline, no recomputation).
  std::uint64_t cycles_per_sample_total = 0;
  /// == samples x cycles_per_sample_total, and == sum of rows'
  /// cycles_total.
  std::uint64_t cycles_total = 0;
  std::uint64_t host_ns_total = 0;
};

/// The accumulator compile::run_plan_batch reports into (one per deployed
/// member, owned by the serving backend).
class LayerProfiler {
 public:
  /// Builds the static per-layer tables from the same workload /
  /// cycle-model / traffic-model pipeline the serving cost accounting uses.
  LayerProfiler(const QNetDesc& desc, std::size_t in_c, std::size_t in_h,
                std::size_t in_w, const AcceleratorConfig& config);

  /// One executed plan pass of `batch_samples` samples.
  void record_pass(std::size_t batch_samples) noexcept;

  /// Host wall time of one plan-step invocation for desc layer index
  /// `desc_layer` (flatten layers are free and ignored).
  void record_layer_host_ns(std::size_t desc_layer,
                            std::uint64_t ns) noexcept;

  [[nodiscard]] LayerProfile snapshot() const;

  /// Rows in the profile (workload layers; flatten excluded).
  [[nodiscard]] std::size_t layer_count() const noexcept {
    return static_.size();
  }

 private:
  struct StaticRow {
    std::string name;
    LayerWork::Kind kind = LayerWork::Kind::kConv;
    std::uint64_t cycles = 0;
    std::uint64_t macs = 0;
    std::uint64_t weight_bytes = 0;
    std::uint64_t act_bytes = 0;
    double occupancy = 0.0;
  };

  std::vector<StaticRow> static_;
  std::uint64_t cycles_per_sample_total_ = 0;
  /// desc layer index -> row index (SIZE_MAX for free/flatten layers).
  std::vector<std::size_t> row_of_layer_;

  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> samples_{0};
  /// Per-row host-ns accumulators (heap array: rows are fixed after
  /// construction, atomics are not movable).
  std::unique_ptr<std::atomic<std::uint64_t>[]> host_ns_;
};

/// Renders one profile as an aligned per-layer table (cycles, share, DMA,
/// occupancy, host time), ready to print.
[[nodiscard]] std::string render_layer_profile_table(
    const LayerProfile& profile, const std::string& title);

}  // namespace mfdfp::hw
