#include "compile/plan_cache.hpp"

#include <sstream>

namespace mfdfp::compile {

namespace {

std::string cache_key(std::uint64_t content_hash, std::size_t in_c,
                      std::size_t in_h, std::size_t in_w) {
  std::ostringstream key;
  key << std::hex << content_hash << std::dec << "|" << in_c << "x" << in_h
      << "x" << in_w;
  return key.str();
}

}  // namespace

std::shared_ptr<const CompiledPlan> PlanCache::get_or_compile(
    const hw::QNetDesc& desc, std::size_t in_c, std::size_t in_h,
    std::size_t in_w) {
  const std::string key =
      cache_key(qnet_content_hash(desc), in_c, in_h, in_w);

  util::MutexLock lock(mutex_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    it->second.last_used = ++clock_;
    ++stats_.hits;
    return it->second.plan;
  }

  ++stats_.misses;
  std::shared_ptr<const CompiledPlan> plan =
      compile_qnet(desc, in_c, in_h, in_w);
  entries_[key] = Entry{plan, ++clock_};

  while (max_entries_ != 0 && entries_.size() > max_entries_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    // Dropping the map's shared_ptr only releases the cache's reference:
    // backends and in-flight requests holding the plan keep serving it.
    entries_.erase(victim);
    ++stats_.evictions;
  }
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  util::MutexLock lock(mutex_);
  PlanCacheStats out = stats_;
  out.entries = entries_.size();
  return out;
}

void PlanCache::clear() {
  util::MutexLock lock(mutex_);
  entries_.clear();
}

}  // namespace mfdfp::compile
