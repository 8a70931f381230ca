// ModelServer: the serving front door.
//
// Maps each model name to its versioned deployment — a ReplicaSet of
// isolated InferenceEngines with their own queues and worker threads — and
// dispatches submissions by name onto the set's least-loaded replica. One
// process hosts many models concurrently, each optionally sharded across
// replicas:
//
//   ModelServer server;
//   server.deploy("cnn", {qnet}, config);            // single network
//   server.deploy("ens", member_qnets, config);      // averaged ensemble
//   config.placement.assign(4, config.device);       // shard across 4 engines
//   server.deploy("hot", {qnet}, config);
//   config.placement = {{.name = "npu0"},            // heterogeneous devices
//                       {.name = "npu1", .speed_factor = 2.0}};
//   server.deploy("het", {qnet}, config);            // 1x + 2x behind one name
//   auto future = server.submit("hot", sample,
//       {.priority = Priority::kInteractive, .deadline_us = deadline});
//   Response r = future.get();                       // r.status, r.logits
//
// Every submission resolves with a typed StatusCode (status.hpp): routing
// misses are kModelNotFound, overload sheds kBatch traffic as kShedded
// (per-replica admission control and the set-wide batch_quota), missed
// deadlines are kDeadlineExceeded, and shutdown() flips the server into
// kShuttingDown while draining every replica of every deployed model — no
// promise is ever abandoned. deploy() on an existing name is a hot
// redeploy: the new set is built while the old one keeps serving, swapped
// in, and then every replica of the old one drains (in-flight requests
// resolve with the old version stamped). Versions increase monotonically
// per name and survive undeploy and rejected deploys, so a redeployed
// model never reuses a version number.
//
// Deployments placed on a SharedDevice (DeviceSpec::shared in
// config.placement) are *tenants* of that PU, not owners: undeploying or
// hot-redeploying one model drains only that model's engines, while the
// other tenants keep serving and the device outlives the entry through
// their backend handles.
//
// Two locks, each with one job. lifecycle_mutex_ serializes deploy(),
// undeploy() and shutdown() (an undeploy cannot race a redeploy of the same
// name half-way, a deploy cannot publish after shutdown) and guards the
// version counters. entries_mutex_ guards only the name map; it is held for
// lookups and swaps, never while a set is built or drained, so submit()
// never waits on a deploy. The shared_ptr a lookup hands out pins the set
// for the whole submit path: a submit racing an undeploy either misses or
// reaches a set that drains, never a freed one. shutdown() stores its flag
// before it clears the map, and a lookup miss checks the flag, so a submit
// racing shutdown resolves kShuttingDown, never a spurious kModelNotFound.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/plan_cache.hpp"
#include "serve/replica_set.hpp"
#include "util/mutex.hpp"

namespace mfdfp::serve {

/// Identity of one deployment, returned by deploy().
struct ModelHandle {
  std::string name;
  std::uint32_t version = 0;
};

class ModelServer {
 public:
  ModelServer() = default;
  ~ModelServer() { shutdown(); }

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Deploys (or hot-redeploys) a model as one engine replica per
  /// config.placement entry (one on config.device when the placement is
  /// empty); config.model_name and config.model_version are overwritten
  /// with the deployment's identity. Throws std::invalid_argument on an
  /// empty name/member list and std::logic_error after shutdown().
  ///
  /// When any deployed model (the candidate included) declares a
  /// TrafficEnvelope, the deploy-time capacity analyzer
  /// (analysis/capacity.hpp) first proves the combined placement can meet
  /// every declared deadline — candidate and co-resident models are
  /// analyzed together, so a new tenant that would break a neighbour's
  /// proven SLO on a shared PU is refused too. Infeasible placements throw
  /// DeployError{kInfeasibleSlo} before serving a single request, unless
  /// the candidate's envelope sets warn_only (the violated proofs are
  /// logged and stay visible through capacity_report()). A refused
  /// candidate unwinds while any existing version keeps serving untouched.
  ModelHandle deploy(const std::string& name,
                     std::vector<hw::QNetDesc> members,
                     DeployConfig config = {})
      EXCLUDES(lifecycle_mutex_, entries_mutex_);

  /// Undeploys `name`, draining every replica's in-flight requests. False
  /// if unknown (including after shutdown, which already undeployed all).
  bool undeploy(const std::string& name)
      EXCLUDES(lifecycle_mutex_, entries_mutex_);

  /// Routes one sample to the named model's least-loaded replica (see
  /// ReplicaSet / InferenceEngine). Unknown names resolve kModelNotFound
  /// (kShuttingDown after shutdown()).
  [[nodiscard]] std::future<Response> submit(const std::string& model,
                                             tensor::Tensor sample,
                                             SubmitOptions options = {})
      EXCLUDES(entries_mutex_);

  /// Drains and undeploys every model; subsequent submits resolve
  /// kShuttingDown and deploys throw. Idempotent.
  void shutdown() EXCLUDES(lifecycle_mutex_, entries_mutex_);

  /// Handles of every deployed model, unordered.
  [[nodiscard]] std::vector<ModelHandle> models() const
      EXCLUDES(entries_mutex_);
  [[nodiscard]] std::size_t model_count() const EXCLUDES(entries_mutex_);

  /// Per-model stats snapshot, aggregated across the model's replicas
  /// (empty snapshot for unknown names).
  [[nodiscard]] StatsSnapshot stats(const std::string& model) const;

  /// The capacity analyzer's findings over everything deployed right now
  /// — the same proofs deploy() gates on, re-derived from the live
  /// deployments (examples/serving_demo prints this table beside the
  /// measured stats). Empty findings when no model declares an envelope.
  [[nodiscard]] analysis::CapacityReport capacity_report() const;

  /// The whole server's metrics in Prometheus text exposition format: one
  /// scrape-ready dump covering every deployed model — request outcome
  /// counters, throughput/utilization/latency-summary series, live
  /// per-lane queue-depth and outstanding gauges, per-device rows, and
  /// (deduplicated across models) shared-PU pass/co-batch/switch series.
  /// Metric names are documented in docs/observability.md. Safe to call
  /// concurrently with serving; each call takes fresh snapshots.
  [[nodiscard]] std::string export_metrics() const;
  /// Per-model stats tables — aggregated, plus a per-replica breakdown for
  /// multi-replica deployments — ready to print ("" for unknown names).
  [[nodiscard]] std::string stats_table(const std::string& model) const;

  /// The model's replica set (per-replica engines, quota counters,
  /// aggregated snapshots); nullptr for unknown names. The shared_ptr keeps
  /// a drained set's stats readable even after undeploy.
  [[nodiscard]] std::shared_ptr<ReplicaSet> replica_set(
      const std::string& model) const EXCLUDES(entries_mutex_);

  /// The server-wide compiled-plan cache (compile/plan_cache.hpp): deploy()
  /// hands it to every deployment whose config left plan_cache null, so
  /// replicas, shared-PU tenants, and hot redeploys of identical content
  /// all share one compiled artifact per (content, geometry).
  [[nodiscard]] const std::shared_ptr<compile::PlanCache>& plan_cache()
      const noexcept {
    return plan_cache_;
  }

  /// Direct engine access for tests/benches: the model's *first* replica
  /// (its only one for single-replica deployments); nullptr for unknown
  /// names. Multi-replica callers should go through replica_set().
  [[nodiscard]] std::shared_ptr<InferenceEngine> engine(
      const std::string& model) const {
    const std::shared_ptr<ReplicaSet> set = replica_set(model);
    return set ? set->replica(0) : nullptr;
  }

  /// Submissions that named a model with no deployment (no per-model
  /// ServerStats exists to attribute the miss to).
  [[nodiscard]] std::uint64_t not_found_count() const noexcept {
    return not_found_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<ReplicaSet> replicas;
    std::uint32_t version = 0;
  };
  struct Deployment {
    ModelHandle handle;
    std::shared_ptr<ReplicaSet> replicas;
  };

  /// Every deployed model with its set, snapshotted under one lock.
  [[nodiscard]] std::vector<Deployment> deployed() const
      EXCLUDES(entries_mutex_);

  /// Orders deploy() / undeploy() / shutdown() against each other (see
  /// file comment). submit() never takes it.
  util::Mutex lifecycle_mutex_;
  /// Last version handed out per name; survives undeploy so redeploys keep
  /// incrementing.
  std::unordered_map<std::string, std::uint32_t> last_version_
      GUARDED_BY(lifecycle_mutex_);
  mutable util::Mutex entries_mutex_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(entries_mutex_);
  /// Set once at construction, handed out by reference afterwards — the
  /// pointer itself is immutable, so it needs no guard (the cache has its
  /// own internal lock).
  std::shared_ptr<compile::PlanCache> plan_cache_ =
      std::make_shared<compile::PlanCache>();
  /// Stored by shutdown() before the map clears; read on lookup misses.
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> not_found_{0};
};

}  // namespace mfdfp::serve
