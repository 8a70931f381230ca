#include "serve/registry.hpp"

#include <stdexcept>
#include <utility>

namespace mfdfp::serve {

ModelHandle ModelRegistry::deploy(
    const std::string& name, std::vector<hw::QNetDesc> members,
    DeployConfig config,
    const std::function<void(const ReplicaSet&)>& validate) {
  if (name.empty()) {
    throw std::invalid_argument("ModelRegistry: empty model name");
  }

  // Reserve the version first so concurrent redeploys of one name get
  // distinct versions even though replica sets are built outside the lock.
  std::uint32_t version = 0;
  {
    util::MutexLock lock(mutex_);
    version = ++last_version_[name];
  }

  config.model_name = name;
  config.model_version = version;
  // Server-wide plan sharing: unless the caller brought their own cache,
  // every replica/tenant of this deployment — and any other deployment of
  // identical content — compiles once per (content, geometry).
  if (config.plan_cache == nullptr) config.plan_cache = plan_cache_;
  // Built outside the lock: on redeploy the old set keeps serving while
  // every replacement replica constructs (weight predecode, worker spawn).
  auto replicas =
      std::make_shared<ReplicaSet>(std::move(members), std::move(config));

  // Deploy-time validation on the built-but-unpublished candidate, still
  // outside the lock: a throw here unwinds the candidate set (its workers
  // drain and its shared-PU tenants release in ~ReplicaSet) while the old
  // entry — if any — keeps serving as if this deploy never happened.
  if (validate) validate(*replicas);

  std::shared_ptr<ReplicaSet> replaced;
  {
    util::MutexLock lock(mutex_);
    Entry& entry = entries_[name];
    // A concurrent deploy may have published a newer version already; only
    // swap in if this deployment is the newest.
    if (entry.replicas && entry.version > version) {
      replaced = std::move(replicas);
    } else {
      replaced = std::exchange(entry.replicas, std::move(replicas));
      entry.version = version;
    }
  }
  if (replaced) replaced->stop();  // drain in-flight work of the loser
  return ModelHandle{name, version};
}

bool ModelRegistry::undeploy(const std::string& name) {
  std::shared_ptr<ReplicaSet> removed;
  {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    removed = std::move(it->second.replicas);
    entries_.erase(it);
  }
  removed->stop();  // drain: every queued request resolves before we return
  return true;
}

std::shared_ptr<ReplicaSet> ModelRegistry::find(
    const std::string& name) const {
  util::MutexLock lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.replicas;
}

std::vector<ModelHandle> ModelRegistry::models() const {
  util::MutexLock lock(mutex_);
  std::vector<ModelHandle> handles;
  handles.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    handles.push_back(ModelHandle{name, entry.version});
  }
  return handles;
}

std::size_t ModelRegistry::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

void ModelRegistry::clear() {
  std::vector<std::shared_ptr<ReplicaSet>> removed;
  {
    util::MutexLock lock(mutex_);
    removed.reserve(entries_.size());
    for (auto& [name, entry] : entries_) {
      removed.push_back(std::move(entry.replicas));
    }
    entries_.clear();
  }
  for (auto& replicas : removed) replicas->stop();
}

}  // namespace mfdfp::serve
