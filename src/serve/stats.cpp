#include "serve/stats.hpp"

#include <algorithm>
#include <sstream>

#include "util/table.hpp"

namespace mfdfp::serve {

namespace {
/// Windows shorter than this are reported with zero rates instead of
/// dividing by a near-zero wall time (inf/NaN guard).
constexpr double kMinWindowSeconds = 1e-6;
}  // namespace

void ServerStats::record_response(std::int64_t e2e_us,
                                  std::int64_t queue_wait_us,
                                  Priority priority) {
  util::MutexLock lock(mutex_);
  e2e_us_.record(e2e_us);
  e2e_us_by_class_[static_cast<std::size_t>(priority)].record(e2e_us);
  queue_wait_us_.record(queue_wait_us);
  ++completed_;
  ++completed_by_class_[static_cast<std::size_t>(priority)];
}

void ServerStats::record_timeout() {
  util::MutexLock lock(mutex_);
  ++timed_out_;
}

void ServerStats::record_rejected() {
  util::MutexLock lock(mutex_);
  ++rejected_;
}

void ServerStats::record_shedded() {
  util::MutexLock lock(mutex_);
  ++shedded_;
}

void ServerStats::record_queue_depth(std::size_t depth) {
  util::MutexLock lock(mutex_);
  queue_depth_.record(static_cast<std::int64_t>(depth));
}

void ServerStats::record_batch(std::size_t batch_size, double sim_accel_us,
                               double sim_dma_bytes) {
  util::MutexLock lock(mutex_);
  if (batch_size >= batch_sizes_.size()) {
    batch_sizes_.resize(batch_size + 1, 0);
  }
  ++batch_sizes_[batch_size];
  ++batches_;
  batched_requests_ += batch_size;
  sim_accel_busy_us_ += sim_accel_us;
  sim_dma_bytes_ += sim_dma_bytes;
}

StatsSnapshot ServerStats::snapshot() const {
  util::MutexLock lock(mutex_);
  return snapshot_with_window(window_.seconds());
}

StatsSnapshot ServerStats::aggregate(
    const std::vector<const ServerStats*>& parts,
    std::vector<PartTotals>* per_part) {
  // Merge every part into a scratch instance, one part-lock at a time. The
  // scratch is owned exclusively, but its (uncontended) lock is taken
  // anyway so the merge follows the same checkable lock discipline as
  // every other member access. total.mutex_ is a local the parts can never
  // hold, so the nesting cannot deadlock.
  ServerStats total;
  util::MutexLock total_lock(total.mutex_);
  double wall_seconds = 0.0;
  if (per_part != nullptr) {
    per_part->assign(parts.size(), PartTotals{});
  }
  for (std::size_t index = 0; index < parts.size(); ++index) {
    const ServerStats* part = parts[index];
    if (part == nullptr) continue;
    util::MutexLock lock(part->mutex_);
    if (per_part != nullptr) {
      PartTotals& row = (*per_part)[index];
      row.completed = part->completed_;
      row.sim_accel_busy_us = part->sim_accel_busy_us_;
      row.wall_seconds = part->window_.seconds();
      if (row.wall_seconds >= kMinWindowSeconds) {
        row.throughput_rps =
            static_cast<double>(row.completed) / row.wall_seconds;
        row.sim_accel_utilization =
            row.sim_accel_busy_us / (row.wall_seconds * 1e6);
      }
    }
    total.e2e_us_.merge(part->e2e_us_);
    for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
      total.e2e_us_by_class_[cls].merge(part->e2e_us_by_class_[cls]);
      total.completed_by_class_[cls] += part->completed_by_class_[cls];
    }
    total.queue_wait_us_.merge(part->queue_wait_us_);
    total.queue_depth_.merge(part->queue_depth_);
    if (part->batch_sizes_.size() > total.batch_sizes_.size()) {
      total.batch_sizes_.resize(part->batch_sizes_.size(), 0);
    }
    for (std::size_t size = 0; size < part->batch_sizes_.size(); ++size) {
      total.batch_sizes_[size] += part->batch_sizes_[size];
    }
    total.completed_ += part->completed_;
    total.timed_out_ += part->timed_out_;
    total.rejected_ += part->rejected_;
    total.shedded_ += part->shedded_;
    total.batches_ += part->batches_;
    total.batched_requests_ += part->batched_requests_;
    total.sim_accel_busy_us_ += part->sim_accel_busy_us_;
    total.sim_dma_bytes_ += part->sim_dma_bytes_;
    wall_seconds = std::max(wall_seconds, part->window_.seconds());
  }
  return total.snapshot_with_window(wall_seconds);
}

StatsSnapshot ServerStats::snapshot_with_window(double wall_seconds) const {
  StatsSnapshot s;
  s.completed = completed_;
  s.timed_out = timed_out_;
  s.rejected = rejected_;
  s.shedded = shedded_;

  s.e2e_p50_us = e2e_us_.p50();
  s.e2e_p95_us = e2e_us_.p95();
  s.e2e_p99_us = e2e_us_.p99();
  s.e2e_max_us = e2e_us_.max();
  s.e2e_mean_us = e2e_us_.mean();
  s.queue_p50_us = queue_wait_us_.p50();
  s.queue_p99_us = queue_wait_us_.p99();

  for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
    s.completed_by_class[cls] = completed_by_class_[cls];
    s.e2e_p50_us_by_class[cls] = e2e_us_by_class_[cls].p50();
    s.e2e_p99_us_by_class[cls] = e2e_us_by_class_[cls].p99();
  }

  s.batches = batches_;
  s.mean_batch_size =
      batches_ == 0 ? 0.0
                    : static_cast<double>(batched_requests_) /
                          static_cast<double>(batches_);
  s.batch_size_histogram = batch_sizes_;

  s.depth_p50 = queue_depth_.p50();
  s.depth_p99 = queue_depth_.p99();
  s.depth_max = queue_depth_.max();

  s.wall_seconds = wall_seconds;
  const bool window_valid = s.wall_seconds >= kMinWindowSeconds;
  s.throughput_rps =
      window_valid ? static_cast<double>(completed_) / s.wall_seconds : 0.0;

  s.sim_accel_busy_us = sim_accel_busy_us_;
  s.sim_dma_bytes = sim_dma_bytes_;
  s.sim_accel_utilization =
      window_valid ? sim_accel_busy_us_ / (s.wall_seconds * 1e6) : 0.0;
  return s;
}

std::string render_stats_tables(const StatsSnapshot& s,
                                const std::string& title) {
  std::ostringstream out;

  util::TablePrinter latency(title + " — latency & throughput");
  latency.set_header({"metric", "value"});
  latency.add_row({"completed", std::to_string(s.completed)});
  latency.add_row({"timed out", std::to_string(s.timed_out)});
  latency.add_row({"rejected", std::to_string(s.rejected)});
  latency.add_row({"shedded", std::to_string(s.shedded)});
  latency.add_row({"throughput (req/s)", util::fmt_fixed(s.throughput_rps, 1)});
  latency.add_row({"e2e p50 (us)", std::to_string(s.e2e_p50_us)});
  latency.add_row({"e2e p95 (us)", std::to_string(s.e2e_p95_us)});
  latency.add_row({"e2e p99 (us)", std::to_string(s.e2e_p99_us)});
  latency.add_row({"e2e max (us)", std::to_string(s.e2e_max_us)});
  for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
    if (s.completed_by_class[cls] == 0) continue;
    const char* name = priority_name(static_cast<Priority>(cls));
    latency.add_row({std::string(name) + " p50/p99 (us)",
                     std::to_string(s.e2e_p50_us_by_class[cls]) + "/" +
                         std::to_string(s.e2e_p99_us_by_class[cls])});
  }
  latency.add_row({"queue wait p50 (us)", std::to_string(s.queue_p50_us)});
  latency.add_row({"queue wait p99 (us)", std::to_string(s.queue_p99_us)});
  latency.add_row({"queue depth p50/p99/max",
                   std::to_string(s.depth_p50) + "/" +
                       std::to_string(s.depth_p99) + "/" +
                       std::to_string(s.depth_max)});
  if (s.live_gauges) {
    for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
      const char* name = priority_name(static_cast<Priority>(cls));
      latency.add_row({std::string(name) + " queued/outstanding now",
                       std::to_string(s.queue_depth_now[cls]) + "/" +
                           std::to_string(s.outstanding_now[cls])});
    }
  }
  out << latency.to_string() << "\n";

  util::TablePrinter batching(title + " — batching");
  batching.set_header({"batch size", "batches"});
  for (std::size_t size = 1; size < s.batch_size_histogram.size(); ++size) {
    if (s.batch_size_histogram[size] == 0) continue;
    batching.add_row({std::to_string(size),
                      std::to_string(s.batch_size_histogram[size])});
  }
  batching.add_row({"mean", util::fmt_fixed(s.mean_batch_size, 2)});
  out << batching.to_string() << "\n";

  util::TablePrinter hardware(title + " — simulated accelerator");
  hardware.set_header({"metric", "value"});
  hardware.add_row(
      {"busy time (us)", util::fmt_fixed(s.sim_accel_busy_us, 1)});
  hardware.add_row({"utilization (%)",
                    util::fmt_percent(s.sim_accel_utilization, 2)});
  hardware.add_row(
      {"DMA traffic (MB)", util::fmt_fixed(s.sim_dma_bytes / 1e6, 3)});
  out << hardware.to_string();

  if (!s.devices.empty()) {
    util::TablePrinter devices(title + " — devices");
    devices.set_header({"device", "model", "replicas", "speed", "completed",
                        "req/s", "busy (us)", "util (%)"});
    for (const DeviceUtilizationRow& row : s.devices) {
      // Merged shared-PU rows list the replica span, not one index.
      const std::string replicas =
          row.merged_replicas > 1
              ? std::to_string(row.merged_replicas) + " (shared)"
              : (row.shared ? std::to_string(row.replica) + " (shared)"
                            : std::to_string(row.replica));
      devices.add_row({row.device, row.model, replicas,
                       util::fmt_fixed(row.speed_factor, 2) + "x",
                       std::to_string(row.completed),
                       util::fmt_fixed(row.throughput_rps, 1),
                       util::fmt_fixed(row.sim_accel_busy_us, 1),
                       util::fmt_percent(row.sim_accel_utilization, 2)});
    }
    out << "\n" << devices.to_string();
  }
  return out.str();
}

void ServerStats::clear() {
  util::MutexLock lock(mutex_);
  e2e_us_.clear();
  for (auto& histogram : e2e_us_by_class_) histogram.clear();
  queue_wait_us_.clear();
  queue_depth_.clear();
  batch_sizes_.clear();
  completed_ = timed_out_ = rejected_ = shedded_ = 0;
  completed_by_class_.fill(0);
  batches_ = batched_requests_ = 0;
  sim_accel_busy_us_ = 0.0;
  sim_dma_bytes_ = 0.0;
  window_.reset();
}

}  // namespace mfdfp::serve
