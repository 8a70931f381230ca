// ModelRegistry: named, versioned catalogue of deployed models.
//
// Each deploy(name, members, config) builds a fresh ReplicaSet — one
// isolated InferenceEngine per config.placement device (or
// config.num_replicas homogeneous ones), each with its own queue + worker
// pool, so models and their replicas all run concurrently — and
// publishes it under `name`; deploying an existing name is a hot redeploy:
// the new set is built and swapped in while the old one keeps serving, then
// *every replica* of the old set is drained (each in-flight request
// resolves with the old version stamped) and the set is destroyed once the
// last client reference drops. Versions increase monotonically per name and
// survive undeploy, so a redeployed model never reuses a version number.
//
// Lookup hands out shared_ptr<ReplicaSet>: a submit racing an undeploy
// either misses the entry (kModelNotFound) or holds a reference that keeps
// the whole set alive until its future resolves — undeploy drains, it never
// abandons promises.
//
// Deployments placed on a SharedDevice (DeviceSpec::shared in
// config.placement) are *tenants* of that PU, not owners: undeploying or
// hot-redeploying one model drains only that model's engines — its
// in-flight sub-batches retire on the device in order — while the other
// tenants' lanes keep serving uninterrupted, and the device itself outlives
// the registry entry through the tenants' backend handles.
#pragma once

#include <functional>
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

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ~ModelRegistry() { clear(); }

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Deploys (or hot-redeploys) `members` under `name` as a ReplicaSet of
  /// `config.num_replicas` engines. `config.model_name` and
  /// `config.model_version` are overwritten with the registry identity.
  /// Throws std::invalid_argument for an empty name or member list. On
  /// redeploy, every replica of the replaced set is drained before this
  /// returns.
  ///
  /// `validate`, when set, runs on the fully built candidate set outside
  /// every registry lock and *before* it is published — ModelServer hooks
  /// its capacity analysis here. A throw unwinds the candidate (workers
  /// drain, shared-PU tenants release) while any existing version keeps
  /// serving untouched; the reserved version number is burned either way,
  /// so versions stay monotonic across rejected deploys.
  ModelHandle deploy(
      const std::string& name, std::vector<hw::QNetDesc> members,
      DeployConfig config,
      const std::function<void(const ReplicaSet&)>& validate = {})
      EXCLUDES(mutex_);

  /// Removes `name` and drains every replica of its set (all in-flight
  /// requests resolve). Returns false when no such model is deployed.
  bool undeploy(const std::string& name) EXCLUDES(mutex_);

  /// The replica set serving `name`, or nullptr. The shared_ptr keeps a
  /// drained set's stats readable even after undeploy.
  [[nodiscard]] std::shared_ptr<ReplicaSet> find(const std::string& name) const
      EXCLUDES(mutex_);

  /// Handles of every deployed model, unordered.
  [[nodiscard]] std::vector<ModelHandle> models() const EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);

  /// Undeploys everything (drains every replica of every set).
  void clear() EXCLUDES(mutex_);

  /// The registry-wide compiled-plan cache (compile/plan_cache.hpp):
  /// deploy() hands it to every deployment whose config left plan_cache
  /// null, so replicas, shared-PU tenants, and hot redeploys of identical
  /// content all share one compiled artifact per (content, geometry).
  [[nodiscard]] const std::shared_ptr<compile::PlanCache>& plan_cache()
      const noexcept {
    return plan_cache_;
  }

 private:
  struct Entry {
    std::shared_ptr<ReplicaSet> replicas;
    std::uint32_t version = 0;
  };

  mutable util::Mutex mutex_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  /// Set once at construction, handed out by reference afterwards — the
  /// pointer itself is immutable, so it needs no guard (the cache has its
  /// own internal lock).
  std::shared_ptr<compile::PlanCache> plan_cache_ =
      std::make_shared<compile::PlanCache>();
  /// Last version handed out per name; survives undeploy so redeploys keep
  /// incrementing.
  std::unordered_map<std::string, std::uint32_t> last_version_
      GUARDED_BY(mutex_);
};

}  // namespace mfdfp::serve
