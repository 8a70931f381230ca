// ReplicaSet: one model name sharded across N InferenceEngine replicas,
// each placed on its own (possibly differently-provisioned) accelerator
// device.
//
// ModelServer maps each deployed name to one ReplicaSet rather than one
// engine. Every replica is a full InferenceEngine — its own queue, worker
// pool, and accelerator device — built from the same members and
// DeployConfig. Placement comes from DeployConfig.placement: one DeviceSpec
// per replica (name, speed_factor scaling the cycle model, per-device
// worker/batch/queue overrides), so one name can front a heterogeneous mix
// like {1x, 1x, 4x}. A placement entry whose DeviceSpec::shared names a
// SharedDevice attaches that replica as a *tenant* of the shared PU
// (serve/shared_device.hpp) instead of provisioning a private accelerator —
// several deployments naming the same handle contend for, and co-batch on,
// one device's cycles. An empty placement means one replica on
// config.device, and `placement.assign(n, spec)` deploys n identical ones.
// A single-replica set (the default) behaves exactly like a single engine.
//
// Routing is load-aware per DeployConfig.routing. The default,
// kNormalizedWork, sends each submission to the replica with the least
// *normalized* outstanding work: accepted-but-unresolved requests x that
// device's per-sample modeled cost — which already divides by the device's
// speed_factor, so a 2x-provisioned replica reports half the delay for the
// same backlog and absorbs 2x the traffic. (Queued *and* executing work
// counts, so a replica whose worker holds a popped batch is not mistaken
// for idle.) kOutstandingCount is the speed-blind ablation baseline: least
// raw request count, which on heterogeneous placements queues as much
// behind a 1x device as behind a 4x one — bench/ablation_hetero shows what
// that costs in interactive p99. Ties — the common case on an idle set —
// fall back to round-robin so traffic spreads instead of piling onto
// replica 0.
//
// QoS quota: DeployConfig.batch_quota caps outstanding kBatch requests
// across the *whole* set. Quota-refused submissions resolve kShedded before
// touching any replica queue, and the shed is recorded on the replica that
// would have received the request so aggregated stats count it. Interactive
// traffic is never quota-limited. Per-replica admission control (deadline
// budget vs estimated delay on that replica's device) still applies
// underneath.
//
// stop() drains every replica — each queue closes and its in-flight work
// resolves — before returning, which is what hot-redeploy/undeploy/shutdown
// rely on: no promise of any replica is ever abandoned.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace mfdfp::serve {

class ReplicaSet {
 public:
  /// Builds one engine per placement entry (one engine on config.device
  /// when the placement is empty, which config() then lists). Each
  /// engine gets a copy of `members`, the config with its replica_index and
  /// DeviceSpec stamped, and its own worker threads, started here. Throws
  /// std::invalid_argument when any placement entry has speed_factor <= 0.
  ReplicaSet(std::vector<hw::QNetDesc> members, DeployConfig config);

  ~ReplicaSet() { stop(); }

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Routes one sample per the configured RoutingPolicy (see file comment).
  /// Enforces the set-wide kBatch quota before dispatch.
  [[nodiscard]] std::future<Response> submit(tensor::Tensor sample,
                                             SubmitOptions options = {});

  /// Stops and drains every replica. Idempotent.
  void stop();

  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replicas_.size();
  }
  [[nodiscard]] const std::shared_ptr<InferenceEngine>& replica(
      std::size_t index) const {
    return replicas_[index];
  }
  [[nodiscard]] const DeployConfig& config() const noexcept {
    return config_;
  }

  /// The device replica `index` executes on (resolved: auto-names filled).
  [[nodiscard]] const DeviceSpec& device(std::size_t index) const {
    return replicas_[index]->device();
  }

  /// Sum of the replicas' speed factors — the set's aggregate provisioning
  /// in units of one baseline device ({1x, 2x} -> 3.0). Paced aggregate
  /// throughput should approach total_speed() x one 1x replica's rate,
  /// which is what bench/ablation_hetero enforces.
  [[nodiscard]] double total_speed() const noexcept;

  /// Outstanding kBatch requests across the whole set (the quantity the
  /// batch_quota caps).
  [[nodiscard]] std::size_t outstanding_batch() const noexcept;

  /// Queued requests summed over replicas.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Queued requests of one priority lane, summed over replicas (live
  /// gauge; the source of mfdfp_queue_depth and the stats tables' "now"
  /// rows).
  [[nodiscard]] std::size_t queue_depth(Priority priority) const;

  /// Accepted-but-unresolved requests of one priority lane — queued plus
  /// executing — summed over replicas (live gauge).
  [[nodiscard]] std::size_t outstanding(Priority priority) const noexcept;

  /// Delay a new submission would see: the *minimum* estimated queue delay
  /// over replicas (each priced on its own device), since routing sends it
  /// to the least-loaded one.
  [[nodiscard]] double estimated_queue_delay_us() const;

  /// The static facts the deploy-time capacity analyzer consumes
  /// (analysis/capacity.hpp): this set's envelope/QoS knobs plus one
  /// ReplicaFacts per replica, priced from the *live* engines — sample_us
  /// is each backend's own speed-scaled cost (identical to what
  /// estimated_queue_delay_us() admission prices with), shared-PU facts
  /// come from the attached SharedDevice's config, and the weight-reload
  /// term is the tenant's actual attach-time switch cost. Safe while
  /// serving.
  [[nodiscard]] analysis::ModelFacts capacity_facts() const;

  /// kBatch submissions refused by the set-wide quota (also counted as
  /// shedded in the receiving replica's ServerStats).
  [[nodiscard]] std::uint64_t quota_shed_count() const noexcept {
    return quota_shed_.load(std::memory_order_relaxed);
  }

  /// Exact cross-replica aggregation of every replica's ServerStats
  /// (histograms merge bucket-by-bucket; see ServerStats::aggregate), with
  /// one DeviceUtilizationRow per replica attached (StatsSnapshot.devices).
  [[nodiscard]] StatsSnapshot aggregated_snapshot() const;

  /// One snapshot per replica, in replica-index order.
  [[nodiscard]] std::vector<StatsSnapshot> replica_snapshots() const;

  /// The aggregated ServerStats tables — including the per-device
  /// utilization table — plus a per-replica breakdown table (one row per
  /// replica, with its device and speed), ready to print.
  [[nodiscard]] std::string stats_table(const std::string& title) const;

 private:
  /// Index of the replica routing picks (policy-dependent load metric);
  /// ties round-robin.
  [[nodiscard]] std::size_t pick_replica();

  DeployConfig config_;
  std::vector<std::shared_ptr<InferenceEngine>> replicas_;
  std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<std::uint64_t> quota_shed_{0};
};

}  // namespace mfdfp::serve
