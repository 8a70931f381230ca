#include "serve/request_queue.hpp"

#include <algorithm>
#include <chrono>

#include "util/stopwatch.hpp"

namespace mfdfp::serve {

bool RequestQueue::push(Request&& request) {
  {
    util::MutexLock lock(mutex_);
    const std::size_t limit = request.priority == Priority::kBatch
                                  ? capacity_ - interactive_reserve()
                                  : capacity_;
    if (closed_ || total_locked() >= limit) return false;
    lanes_[lane_of(request.priority)].push_back(std::move(request));
  }
  // notify_all, not notify_one: callers waiting for a first request and
  // callers coalescing a claimed one share the condition variable, and
  // waking only a coalescing caller would leave an idle one asleep until
  // that caller's close time.
  ready_.notify_all();
  return true;
}

bool RequestQueue::pop_batch(std::vector<Request>& batch,
                             std::size_t max_batch, std::int64_t max_wait_us) {
  // Bounds one timed wait: a close time near INT64_MAX must not overflow
  // the condition variable's clock arithmetic. The loop re-checks anyway.
  constexpr std::int64_t kMaxWaitSliceUs = 3'600'000'000;  // one hour
  batch.clear();
  util::MutexLock lock(mutex_);
  ready_.wait(mutex_, [this]() REQUIRES(mutex_) {
    return closed_ || total_locked() > 0;
  });
  take_locked(batch, 1);
  if (batch.empty()) return false;  // closed and drained

  const std::int64_t close_at =
      saturating_add_us(batch.front().enqueue_us, max_wait_us);
  for (;;) {
    if (closed_ || batch.size() + total_locked() >= max_batch) break;
    const std::int64_t now = util::Stopwatch::now_us();
    if (now >= close_at) break;
    ready_.wait_for(mutex_, std::chrono::microseconds(
                                std::min(close_at - now, kMaxWaitSliceUs)));
  }
  take_locked(batch, max_batch);
  return true;
}

void RequestQueue::take_locked(std::vector<Request>& batch,
                               std::size_t limit) {
  for (auto& lane : lanes_) {
    while (batch.size() < limit && !lane.empty()) {
      batch.push_back(std::move(lane.front()));
      lane.pop_front();
    }
  }
}

void RequestQueue::close() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

bool RequestQueue::closed() const {
  util::MutexLock lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  util::MutexLock lock(mutex_);
  return total_locked();
}

std::size_t RequestQueue::size(Priority priority) const {
  util::MutexLock lock(mutex_);
  return lanes_[lane_of(priority)].size();
}

}  // namespace mfdfp::serve
