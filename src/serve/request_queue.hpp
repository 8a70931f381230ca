// Thread-safe bounded queue of pending inference requests with strict
// priority lanes.
//
// Producers (client threads) push; consumers (the engine's worker threads)
// take whole batches with pop_batch() under a single mutex. In
// priority-aware mode (the default) the queue keeps one FIFO lane per
// Priority class and always drains kInteractive before kBatch — strict
// priority, no aging — while order *within* a lane stays FIFO, which is the
// fairness property test_serve.cpp checks. With `priority_aware = false`
// every request lands in a single global FIFO regardless of its priority
// class (the ablation baseline). Capacity is shared across lanes, except
// that in priority-aware mode 1/8 of it (minimum one slot, for capacities
// >= 2) is reserved for kInteractive: a deadline-less kBatch flood that
// admission control cannot shed would otherwise fill the queue and starve
// interactive traffic with kQueueFull at the door — the exact overload
// regime priority classes exist for.
//
// Batch formation (pop_batch) is the standard serving trade-off: a batch
// closes as soon as `max_batch` requests are available, or `max_wait_us`
// after its oldest request was enqueued — so batching adds at most
// `max_wait_us` to any request's latency, up to the wake-up precision of
// the timed wait. The engine passes its batch window here, not the
// configured DeployConfig::max_wait_us: min(max_wait_us, the backend's
// batch_fixed_us()), so a batch is held only while another rider could
// still share its fixed cost (0 on a dedicated device). Engine workers
// run with 1 ns timer slack (util/timer_slack.hpp), so on Linux that wait
// ends within the kernel's wake-up latency, not up to 50 us late. Under
// load batches fill instantly and the wait never triggers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "serve/request.hpp"
#include "util/mutex.hpp"

namespace mfdfp::serve {

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity = 1024,
                        bool priority_aware = true)
      : capacity_(capacity), priority_aware_(priority_aware) {}

  /// Enqueues a request into its priority lane. Returns false (leaving
  /// `request` untouched, promise included) when the queue is closed or
  /// full for that class — kBatch cannot use the interactive-reserved
  /// headroom — so the caller owns the rejection response.
  [[nodiscard]] bool push(Request&& request) EXCLUDES(mutex_);

  /// Blocks for the next batch; returns false only when the queue is closed
  /// *and* drained. Otherwise `batch` is replaced by 1..max(1, max_batch)
  /// requests in strict priority order (all pending kInteractive before
  /// any kBatch, FIFO within a lane). The oldest pending request is claimed
  /// as soon as one arrives, before waiting for more — so two idle callers
  /// split two requests instead of one coalescing both. The batch then
  /// closes at `max_batch` requests, at the claimed request's
  /// `enqueue_us + max_wait_us` (saturating; already past for a request
  /// that aged in a backlog, making coalescing one non-blocking sweep), or
  /// when the queue closes. Requests still waiting meanwhile stay claimable
  /// by other callers.
  [[nodiscard]] bool pop_batch(std::vector<Request>& batch,
                               std::size_t max_batch, std::int64_t max_wait_us)
      EXCLUDES(mutex_);

  /// Closes the queue: subsequent pushes fail, waiters wake, pop_batch()
  /// drains what is left and then returns false.
  void close() EXCLUDES(mutex_);

  [[nodiscard]] bool closed() const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mutex_);
  /// Pending requests in one priority lane (always lane 0 when not
  /// priority-aware).
  [[nodiscard]] std::size_t size(Priority priority) const EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Slots only kInteractive may occupy: 1/8 of capacity, but never less
  /// than one slot for capacities >= 2. Without the floor, capacities below
  /// 8 rounded the reserve to 0 and a kBatch flood could occupy every slot —
  /// the degenerate case the reserve exists to prevent. (0 when not
  /// priority-aware, or for capacities < 2 where reserving would leave
  /// kBatch no slot at all.)
  [[nodiscard]] std::size_t interactive_reserve() const noexcept {
    if (!priority_aware_ || capacity_ < 2) return 0;
    const std::size_t eighth = capacity_ / 8;
    return eighth == 0 ? 1 : eighth;
  }
  [[nodiscard]] bool priority_aware() const noexcept {
    return priority_aware_;
  }

 private:
  [[nodiscard]] std::size_t lane_of(Priority priority) const noexcept {
    return priority_aware_ ? static_cast<std::size_t>(priority) : 0;
  }
  /// Moves pending requests into `batch` in strict priority order until it
  /// holds `limit` requests or the lanes are empty.
  void take_locked(std::vector<Request>& batch, std::size_t limit)
      REQUIRES(mutex_);
  [[nodiscard]] std::size_t total_locked() const noexcept REQUIRES(mutex_) {
    std::size_t total = 0;
    for (const auto& lane : lanes_) total += lane.size();
    return total;
  }

  mutable util::Mutex mutex_;
  util::CondVar ready_;
  std::array<std::deque<Request>, kPriorityClasses> lanes_ GUARDED_BY(mutex_);
  std::size_t capacity_;
  bool priority_aware_;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace mfdfp::serve
