// Aggregate serving metrics: latency percentiles (overall and per priority
// class), throughput, queue depth, batch-size mix, request outcomes by
// StatusCode family, and the simulated accelerator cost of the served
// traffic.
//
// One shared set of util::LatencyHistogram instances behind a single mutex:
// workers record once per batch (and per response within it), so the lock
// is nowhere near the per-synapse hot path and sharding per worker isn't
// worth the merge complexity at these rates. snapshot() freezes a
// consistent view; aggregate() merges the collectors of a ReplicaSet's
// engines into one exact cross-replica snapshot (histogram buckets add, so
// aggregated percentiles are as accurate as per-replica ones);
// render_stats_tables() renders a snapshot as the core::report-style
// tables the benches and the serving demo print.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "util/latency_histogram.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

namespace mfdfp::serve {

/// Per-device utilization of one replica set: one row per *physical*
/// accelerator device. ServerStats itself is device-agnostic (it counts one
/// engine's traffic); ReplicaSet::aggregated_snapshot attaches these rows
/// because only the set knows which DeviceSpec each replica executes on.
/// When several of the set's engines share one physical PU
/// (DeviceSpec::shared), their rows are merged into a single row for that
/// device — N tenants must never render as N devices, or the device table
/// reads a PU as up to N x 100% utilized.
struct DeviceUtilizationRow {
  std::string device;            ///< DeviceSpec name ("dev0", "npu-fast", ...)
  std::string model;             ///< model name served on this device row
  double speed_factor = 1.0;     ///< provisioning relative to the baseline
  /// Replica index within the set; for a merged shared-device row, the
  /// lowest index of the replicas placed on it.
  std::uint32_t replica = 0;
  /// Engines merged into this row (1 for a dedicated device; >= 1 replicas
  /// of *this* set for a shared one).
  std::uint32_t merged_replicas = 1;
  /// True when the device is a shared PU (other models' tenants — not part
  /// of this snapshot — may be contending for the same cycles; see
  /// SharedDevice::snapshot for the cross-model view).
  bool shared = false;
  std::uint64_t completed = 0;   ///< requests this device served for the set
  double sim_accel_busy_us = 0.0;       ///< device-scaled modeled busy time
  double sim_accel_utilization = 0.0;   ///< busy / wall, [0, 1]
  double throughput_rps = 0.0;          ///< completed / wall window
};

struct StatsSnapshot {
  // Request outcomes (see status.hpp for the code -> counter mapping).
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;  ///< kDeadlineExceeded (at submit or queued)
  std::uint64_t rejected = 0;   ///< kQueueFull / kInvalidInput / kShuttingDown
  std::uint64_t shedded = 0;    ///< kShedded (admission control, kBatch only)

  // Wall-clock latency percentiles, microseconds.
  std::int64_t e2e_p50_us = 0, e2e_p95_us = 0, e2e_p99_us = 0,
               e2e_max_us = 0;
  std::int64_t queue_p50_us = 0, queue_p99_us = 0;
  double e2e_mean_us = 0.0;

  // Per-priority-class completions and e2e tails.
  std::array<std::uint64_t, kPriorityClasses> completed_by_class{};
  std::array<std::int64_t, kPriorityClasses> e2e_p50_us_by_class{};
  std::array<std::int64_t, kPriorityClasses> e2e_p99_us_by_class{};

  // Batching.
  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  /// count per batch size, index 0 unused (sizes are 1-based).
  std::vector<std::uint64_t> batch_size_histogram;

  // Queue depth observed at submit time.
  std::int64_t depth_p50 = 0, depth_p99 = 0, depth_max = 0;

  // Throughput over the observation window (construction/clear -> snapshot).
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;

  // Simulated accelerator accounting (cycle/traffic models), whole window.
  double sim_accel_busy_us = 0.0;
  double sim_dma_bytes = 0.0;
  /// Fraction of the wall window the simulated accelerator was busy.
  double sim_accel_utilization = 0.0;

  /// Per-device rows (filled by ReplicaSet::aggregated_snapshot; empty on
  /// plain engine snapshots). render_stats_tables prints them as a
  /// "devices" table when present.
  std::vector<DeviceUtilizationRow> devices;

  // Live per-priority-lane gauges sampled at snapshot time (unlike every
  // field above, these are *now* values, not window aggregates). Filled by
  // ReplicaSet::aggregated_snapshot — `live_gauges` stays false on plain
  // ServerStats snapshots, where nobody sampled the queues — and rendered
  // in the stats tables / exported as mfdfp_queue_depth /
  // mfdfp_outstanding_requests gauges.
  bool live_gauges = false;
  std::array<std::size_t, kPriorityClasses> queue_depth_now{};
  std::array<std::size_t, kPriorityClasses> outstanding_now{};
};

class ServerStats {
 public:
  ServerStats() : window_() {}

  /// One completed request of the given priority class.
  void record_response(std::int64_t e2e_us, std::int64_t queue_wait_us,
                       Priority priority) EXCLUDES(mutex_);
  /// One request that missed its deadline (at submit or while queued).
  void record_timeout() EXCLUDES(mutex_);
  /// One request refused at submit time (bad input, queue full, stopped).
  void record_rejected() EXCLUDES(mutex_);
  /// One kBatch request shed by admission control.
  void record_shedded() EXCLUDES(mutex_);
  /// Queue depth seen by a submitter (recorded before its own push).
  void record_queue_depth(std::size_t depth) EXCLUDES(mutex_);
  /// One executed batch with its simulated hardware cost.
  void record_batch(std::size_t batch_size, double sim_accel_us,
                    double sim_dma_bytes) EXCLUDES(mutex_);

  /// Consistent snapshot with derived rates over the current window. Rates
  /// (throughput, utilization) report 0 when the window is shorter than
  /// ~1 us — a snapshot taken immediately after clear() must not divide by
  /// a denormal wall time and emit inf/NaN.
  [[nodiscard]] StatsSnapshot snapshot() const EXCLUDES(mutex_);

  /// Scalar totals of one collector, captured under its lock during
  /// aggregate() — what a per-device utilization row needs, without a
  /// second lock round or a redundant percentile extraction per part.
  struct PartTotals {
    std::uint64_t completed = 0;
    double sim_accel_busy_us = 0.0;
    double wall_seconds = 0.0;
    double throughput_rps = 0.0;         ///< 0 for degenerate windows
    double sim_accel_utilization = 0.0;  ///< 0 for degenerate windows
  };

  /// Exact aggregation across independent collectors (the replicas of one
  /// ReplicaSet): histograms merge bucket-by-bucket (so aggregated
  /// percentiles carry the same ~1.6% error as per-replica ones, not a
  /// percentile-of-percentiles guess), counters sum, and the observation
  /// window is the longest of the parts (replicas of one set start
  /// together, so their windows coincide). Each part is locked in turn;
  /// the result is a stats-grade view, not an atomic cross-part cut.
  /// Null entries are skipped. When `per_part` is non-null it is filled
  /// with one PartTotals per input entry (index-aligned with `parts`;
  /// zeroed rows for null entries), read in the *same* locked pass as the
  /// merge — so per-part rows always sum to the aggregate's totals.
  [[nodiscard]] static StatsSnapshot aggregate(
      const std::vector<const ServerStats*>& parts,
      std::vector<PartTotals>* per_part = nullptr);

  /// Clears all counters and restarts the observation window.
  void clear() EXCLUDES(mutex_);

 private:
  /// Derives a snapshot from the current members over an explicit wall
  /// window. Holds for aggregate()'s exclusively-owned scratch instance
  /// too — it locks the scratch mutex anyway (uncontended) to keep the
  /// lock discipline uniform and analyzable.
  [[nodiscard]] StatsSnapshot snapshot_with_window(double wall_seconds) const
      REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  util::Stopwatch window_ GUARDED_BY(mutex_);
  util::LatencyHistogram e2e_us_ GUARDED_BY(mutex_);
  std::array<util::LatencyHistogram, kPriorityClasses> e2e_us_by_class_
      GUARDED_BY(mutex_);
  util::LatencyHistogram queue_wait_us_ GUARDED_BY(mutex_);
  util::LatencyHistogram queue_depth_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> batch_sizes_ GUARDED_BY(mutex_);
  std::uint64_t completed_ GUARDED_BY(mutex_) = 0;
  std::array<std::uint64_t, kPriorityClasses> completed_by_class_
      GUARDED_BY(mutex_){};
  std::uint64_t timed_out_ GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ GUARDED_BY(mutex_) = 0;
  std::uint64_t shedded_ GUARDED_BY(mutex_) = 0;
  std::uint64_t batches_ GUARDED_BY(mutex_) = 0;
  std::uint64_t batched_requests_ GUARDED_BY(mutex_) = 0;
  double sim_accel_busy_us_ GUARDED_BY(mutex_) = 0.0;
  double sim_dma_bytes_ GUARDED_BY(mutex_) = 0.0;
};

/// Renders one snapshot as aligned latency / batching / simulated hardware
/// tables, ready to print.
[[nodiscard]] std::string render_stats_tables(const StatsSnapshot& snapshot,
                                              const std::string& title);

}  // namespace mfdfp::serve
