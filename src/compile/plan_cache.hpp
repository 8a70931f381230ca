// PlanCache: deploy-time cache of CompiledPlans keyed by
// (model content hash, input geometry).
//
// N replicas of one deployment — and shared-PU tenants serving the same
// model, on any mix of device classes (nothing in a plan depends on the
// device) — compile once and share one immutable artifact instead of N
// engine-local predecodes. ModelServer owns one cache per server (its
// deploy() fills DeployConfig.plan_cache when the caller leaves it null),
// so hot redeploys of identical content also hit.
//
// Sharing semantics (the contract tests/test_compile.cpp's redeploy-storm
// test enforces): the cache hands out shared_ptr<const CompiledPlan> and
// eviction/clear() only drop the cache's own reference. A plan pinned by an
// in-flight request of an old version keeps serving, bit-identically,
// regardless of how many newer versions were deployed or evicted behind it
// — plans are never mutated after compile_qnet returns them.
//
// Thread-safety: all members are safe for concurrent callers (one mutex;
// compilation runs under it — deploy-time work, contention is not a
// concern).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "compile/passes.hpp"
#include "compile/plan.hpp"
#include "hw/qnet.hpp"
#include "util/mutex.hpp"

namespace mfdfp::compile {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< compilations performed
  std::uint64_t evictions = 0;  ///< entries dropped by the LRU bound
  std::size_t entries = 0;      ///< currently cached
};

class PlanCache {
 public:
  /// `max_entries` bounds the cache (least-recently-used eviction);
  /// 0 = unbounded. Evicted plans stay alive for whoever still holds them.
  explicit PlanCache(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for (content_hash(desc), geometry), compiling
  /// on miss.
  [[nodiscard]] std::shared_ptr<const CompiledPlan> get_or_compile(
      const hw::QNetDesc& desc, std::size_t in_c, std::size_t in_h,
      std::size_t in_w) EXCLUDES(mutex_);

  [[nodiscard]] PlanCacheStats stats() const EXCLUDES(mutex_);

  /// Drops every cached entry (outstanding shared_ptrs keep serving).
  /// Dropped entries do not count as evictions.
  void clear() EXCLUDES(mutex_);

  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

 private:
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    std::uint64_t last_used = 0;
  };

  const std::size_t max_entries_;
  mutable util::Mutex mutex_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  std::uint64_t clock_ GUARDED_BY(mutex_) = 0;
  PlanCacheStats stats_ GUARDED_BY(mutex_);
};

}  // namespace mfdfp::compile
