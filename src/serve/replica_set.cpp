#include "serve/replica_set.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "serve/shared_device.hpp"
#include "util/table.hpp"

namespace mfdfp::serve {

namespace {

/// The DeviceSpec a tenant engine on a shared PU resolves to: the PU's
/// identity and provisioning (its name and speed are authoritative), the
/// placement entry's scheduling overrides (workers / max_batch /
/// queue_capacity), and the handle itself so stats can find the device.
DeviceSpec merge_shared_spec(const DeviceSpec& entry,
                             const SharedDevice& device) {
  DeviceSpec merged = device.spec();  // PU identity + its default overrides
  if (entry.workers != 0) merged.workers = entry.workers;
  if (entry.max_batch != 0) merged.max_batch = entry.max_batch;
  if (entry.queue_capacity != 0) merged.queue_capacity = entry.queue_capacity;
  merged.shared = entry.shared;
  return merged;
}

}  // namespace

ReplicaSet::ReplicaSet(std::vector<hw::QNetDesc> members,
                       DeployConfig config)
    : config_(std::move(config)) {
  // Placement wins over num_replicas: one replica per listed device.
  // Validate every entry before building anything — a half-constructed set
  // whose later device is invalid would have started worker threads already.
  if (!config_.placement.empty()) {
    config_.num_replicas = config_.placement.size();
    for (std::size_t index = 0; index < config_.placement.size(); ++index) {
      if (!config_.placement[index].valid()) {
        throw std::invalid_argument(
            "ReplicaSet: placement[" + std::to_string(index) +
            "] has speed_factor <= 0 and no shared device");
      }
    }
  } else if (!config_.device.valid()) {
    throw std::invalid_argument(
        "ReplicaSet: config.device has speed_factor <= 0");
  }
  if (config_.num_replicas == 0) config_.num_replicas = 1;

  replicas_.reserve(config_.num_replicas);
  for (std::size_t index = 0; index < config_.num_replicas; ++index) {
    DeployConfig replica_config = config_;
    replica_config.replica_index = static_cast<std::uint32_t>(index);
    if (!config_.placement.empty()) {
      replica_config.device = config_.placement[index];
    }
    // Each engine holds only its own device; the set-level list stays in
    // config_.placement.
    replica_config.placement.clear();
    // The last replica can move the members; the others copy.
    std::vector<hw::QNetDesc> replica_members =
        index + 1 == config_.num_replicas ? std::move(members) : members;
    if (replica_config.device.shared != nullptr) {
      // Shared PU: attach a tenant backend to the named device instead of
      // provisioning a private simulated accelerator. The engine is built
      // through the ordinary backend-injection seam — no engine changes.
      const std::shared_ptr<SharedDevice> device =
          replica_config.device.shared;
      replica_config.device =
          merge_shared_spec(replica_config.device, *device);
      std::shared_ptr<const SharedDeviceBackend> backend = device->attach(
          std::move(replica_members), replica_config,
          replica_config.device);
      replicas_.push_back(std::make_shared<InferenceEngine>(
          std::move(backend), std::move(replica_config)));
    } else {
      replicas_.push_back(std::make_shared<InferenceEngine>(
          std::move(replica_members), std::move(replica_config)));
    }
  }

  // Make each tenant's full engine-side backlog (queued + executing)
  // visible to its device, so the other tenants' admission control and
  // routing price a shared PU's true aggregate outstanding work (no-op
  // for dedicated backends). weak_ptr: the device outlives the engine,
  // and a drained tenant prices as 0. Bound only now, after every replica
  // constructed: a throw mid-construction unwinds engines whose providers
  // were never bound, and stop() unbinds before the last engine reference
  // can drop (see ExecutionBackend::bind_load_provider) — so no provider
  // can ever outlive, or destroy, its engine.
  for (const auto& replica : replicas_) {
    replica->backend().bind_load_provider(
        [weak = std::weak_ptr<InferenceEngine>(replica)] {
          const std::shared_ptr<InferenceEngine> engine = weak.lock();
          return engine ? engine->outstanding_work_us() : 0.0;
        });
  }
}

std::size_t ReplicaSet::pick_replica() {
  // Least-loaded replica under the configured policy. kNormalizedWork
  // compares estimated queue delay in modeled microseconds on each
  // replica's own device — per-sample cost already divides by the device's
  // speed_factor, so a 2x replica reports half the delay for the same
  // backlog and naturally absorbs 2x the traffic, and on a *shared* device
  // the estimate counts every tenant's outstanding work, so a replica
  // co-located with a busy neighbour stops looking idle. kOutstandingCount
  // compares raw request counts (speed- and tenant-blind; the ablation
  // baseline). The tied minimum is collected in the same pass that finds
  // it: loads shift under concurrent submits, and re-reading them for the
  // tie-break could leave it with no candidates.
  const bool normalized =
      config_.routing == RoutingPolicy::kNormalizedWork;
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> tied;
  tied.reserve(replicas_.size());
  for (std::size_t index = 0; index < replicas_.size(); ++index) {
    const double load =
        normalized
            ? replicas_[index]->estimated_queue_delay_us()
            : static_cast<double>(replicas_[index]->outstanding_total());
    if (load < best) {
      best = load;
      tied.assign(1, index);
    } else if (load == best) {
      tied.push_back(index);
    }
  }
  // Round-robin across the tied minimum so an idle set spreads traffic
  // instead of piling onto the first replica.
  if (tied.size() == 1) return tied.front();
  return tied[round_robin_.fetch_add(1, std::memory_order_relaxed) %
              tied.size()];
}

std::future<Response> ReplicaSet::submit(tensor::Tensor sample,
                                         SubmitOptions options) {
  const std::size_t index = pick_replica();
  const std::shared_ptr<InferenceEngine>& target = replicas_[index];

  // Set-wide QoS quota: kBatch admission is capped across all replicas, so
  // a batch flood cannot occupy N queues just because the model is
  // replicated. Checked against the pre-submit total — concurrent
  // submitters may overshoot by their count, which is stats-grade
  // enforcement, not a hard resource bound (each replica queue stays
  // bounded regardless).
  if (config_.batch_quota > 0 && options.priority == Priority::kBatch &&
      outstanding_batch() >= config_.batch_quota) {
    quota_shed_.fetch_add(1, std::memory_order_relaxed);
    target->stats().record_shedded();
    return ready_failure(StatusCode::kShedded,
                         "batch quota exhausted across replica set",
                         options.priority);
  }
  return target->submit(std::move(sample), options);
}

void ReplicaSet::stop() {
  for (const auto& replica : replicas_) replica->stop();
  // Unbind load providers before any engine reference can be dropped: a
  // provider's weak_ptr::lock on another thread — running under a shared
  // device's mutex — must never become the *last* owner of an engine,
  // because ~InferenceEngine would then re-enter that mutex through
  // ~SharedDeviceBackend -> release_tenant and self-deadlock. Unbinding
  // serializes on the same mutex, so any provider call already in flight
  // (and its temporary shared_ptr) completes before the unbind returns,
  // and none can start afterwards. The engines are drained at this point,
  // so pricing their load as the lane's own pending work is also simply
  // correct. No-op for dedicated backends.
  for (const auto& replica : replicas_) {
    replica->backend().bind_load_provider(nullptr);
  }
}

double ReplicaSet::total_speed() const noexcept {
  // Each *physical* device counts once: two replicas attached to one shared
  // PU add one PU's worth of provisioning, not two.
  double total = 0.0;
  std::vector<const SharedDevice*> counted;
  for (const auto& replica : replicas_) {
    const DeviceSpec& device = replica->device();
    if (device.shared != nullptr) {
      if (std::find(counted.begin(), counted.end(), device.shared.get()) !=
          counted.end()) {
        continue;
      }
      counted.push_back(device.shared.get());
    }
    total += device.speed_factor;
  }
  return total;
}

std::size_t ReplicaSet::outstanding_batch() const noexcept {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->outstanding(Priority::kBatch);
  }
  return total;
}

std::size_t ReplicaSet::queue_depth() const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) total += replica->queue_depth();
  return total;
}

std::size_t ReplicaSet::queue_depth(Priority priority) const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->queue_depth(priority);
  }
  return total;
}

std::size_t ReplicaSet::outstanding(Priority priority) const noexcept {
  std::size_t total = 0;
  for (const auto& replica : replicas_) {
    total += replica->outstanding(priority);
  }
  return total;
}

double ReplicaSet::estimated_queue_delay_us() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& replica : replicas_) {
    best = std::min(best, replica->estimated_queue_delay_us());
  }
  return replicas_.empty() ? 0.0 : best;
}

analysis::ModelFacts ReplicaSet::capacity_facts() const {
  analysis::ModelFacts facts;
  facts.model = config_.model_name.empty() ? "model" : config_.model_name;
  facts.envelope = config_.envelope;
  facts.admission_control = config_.admission_control;
  facts.batch_quota = config_.batch_quota;
  facts.replicas.reserve(replicas_.size());
  for (std::size_t index = 0; index < replicas_.size(); ++index) {
    const InferenceEngine& engine = *replicas_[index];
    const DeviceSpec& device = engine.device();
    const DeployConfig& resolved = engine.config();
    analysis::ReplicaFacts r;
    r.device = device.name;
    r.shared = device.shared != nullptr;
    r.speed_factor = device.speed_factor;
    // The same per-sample price admission and routing use — the analyzer's
    // single-source-of-truth contract (see analysis/capacity.hpp).
    r.sample_us = engine.simulated_sample_us();
    r.max_batch = resolved.max_batch;
    r.max_wait_us = resolved.max_wait_us;
    r.queue_capacity = resolved.queue_capacity;
    if (device.shared != nullptr) {
      // All replicas of all models naming this PU contend for one device:
      // key by the PU so the analyzer groups them.
      r.device_key = device.name;
      const SharedDeviceConfig& pu = device.shared->config();
      r.max_pass_samples = pu.max_pass_samples;
      r.cobatch = pu.cobatch;
      r.coalesce_window_us = pu.coalesce_window_us;
      r.pass_overhead_us = pu.pass_overhead_us;
      r.preempt_granularity_us = pu.preempt_granularity_us;
      if (const auto* backend = dynamic_cast<const SharedDeviceBackend*>(
              &engine.backend())) {
        r.switch_us = backend->switch_us();
      }
    } else {
      // A dedicated device is private hardware: two models' "dev0" are
      // distinct, so the key carries the deployment identity.
      r.device_key =
          facts.model + "/" + device.name + "#r" + std::to_string(index);
    }
    facts.replicas.push_back(std::move(r));
  }
  return facts;
}

StatsSnapshot ReplicaSet::aggregated_snapshot() const {
  std::vector<const ServerStats*> parts;
  parts.reserve(replicas_.size());
  for (const auto& replica : replicas_) parts.push_back(&replica->stats());
  // Per-part totals come out of the same locked pass as the merge, so the
  // device rows always sum to the aggregate's counters — and no replica is
  // snapshotted (percentiles and all) a second time just for four scalars.
  std::vector<ServerStats::PartTotals> totals;
  StatsSnapshot total = ServerStats::aggregate(parts, &totals);

  // Live per-lane gauges: what is queued / outstanding right now, as
  // opposed to the window aggregates above.
  total.live_gauges = true;
  for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
    const Priority lane = static_cast<Priority>(cls);
    total.queue_depth_now[cls] = queue_depth(lane);
    total.outstanding_now[cls] = outstanding(lane);
  }

  // Attach one utilization row per *physical* device — only the set knows
  // which DeviceSpec each replica executes on. Replicas placed on the same
  // shared PU (identical DeviceSpec::shared handle) merge into one row:
  // their busy times and completions add, and the merged utilization is the
  // device's, so one PU can never render as N devices at up to N x 100%.
  total.devices.reserve(replicas_.size());
  // Physical identity of each emitted row: the SharedDevice handle for
  // shared rows (merge key), null for dedicated ones (never merged).
  std::vector<const SharedDevice*> row_identity;
  row_identity.reserve(replicas_.size());
  for (std::size_t index = 0; index < replicas_.size(); ++index) {
    const DeviceSpec& device = replicas_[index]->device();
    DeviceUtilizationRow row;
    row.device = device.name;
    row.model = config_.model_name;
    row.speed_factor = device.speed_factor;
    row.replica = static_cast<std::uint32_t>(index);
    row.shared = device.shared != nullptr;
    row.completed = totals[index].completed;
    row.sim_accel_busy_us = totals[index].sim_accel_busy_us;
    row.sim_accel_utilization = totals[index].sim_accel_utilization;
    row.throughput_rps = totals[index].throughput_rps;

    // Merge into the existing row of the same physical shared device.
    bool absorbed = false;
    if (row.shared) {
      for (std::size_t prior = 0; prior < total.devices.size(); ++prior) {
        if (row_identity[prior] == device.shared.get()) {
          DeviceUtilizationRow& target = total.devices[prior];
          target.merged_replicas += 1;
          target.completed += row.completed;
          target.sim_accel_busy_us += row.sim_accel_busy_us;
          target.sim_accel_utilization += row.sim_accel_utilization;
          target.throughput_rps += row.throughput_rps;
          absorbed = true;
          break;
        }
      }
    }
    if (!absorbed) {
      row_identity.push_back(row.shared ? device.shared.get() : nullptr);
      total.devices.push_back(std::move(row));
    }
  }
  return total;
}

std::vector<StatsSnapshot> ReplicaSet::replica_snapshots() const {
  std::vector<StatsSnapshot> snapshots;
  snapshots.reserve(replicas_.size());
  for (const auto& replica : replicas_) {
    snapshots.push_back(replica->stats().snapshot());
  }
  return snapshots;
}

std::string ReplicaSet::stats_table(const std::string& title) const {
  std::string out = render_stats_tables(aggregated_snapshot(), title);
  if (replicas_.size() < 2) return out;

  util::TablePrinter per_replica(title + " — per replica");
  per_replica.set_header({"replica", "device", "speed", "completed",
                          "timed out", "shedded", "e2e p50 (us)",
                          "e2e p99 (us)", "sim busy (us)"});
  const std::vector<StatsSnapshot> snapshots = replica_snapshots();
  for (std::size_t index = 0; index < snapshots.size(); ++index) {
    const StatsSnapshot& s = snapshots[index];
    const DeviceSpec& device = replicas_[index]->device();
    per_replica.add_row({std::to_string(index), device.name,
                         util::fmt_fixed(device.speed_factor, 2) + "x",
                         std::to_string(s.completed),
                         std::to_string(s.timed_out),
                         std::to_string(s.shedded),
                         std::to_string(s.e2e_p50_us),
                         std::to_string(s.e2e_p99_us),
                         util::fmt_fixed(s.sim_accel_busy_us, 1)});
  }
  out += "\n";
  out += per_replica.to_string();
  return out;
}

}  // namespace mfdfp::serve
