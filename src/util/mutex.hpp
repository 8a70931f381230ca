// Annotated mutex primitives for the clang thread-safety analysis.
//
// util::Mutex wraps std::mutex with the CAPABILITY attribute so
// -Wthread-safety can track what it guards; MutexLock / ReleasableMutexLock
// are the RAII guards (SCOPED_CAPABILITY), and CondVar pairs a
// std::condition_variable_any directly with a held Mutex so predicate
// waits keep their REQUIRES contract. Everything compiles to the plain
// std:: primitives — the wrapper adds no state and no overhead; off
// clang the annotations vanish entirely (util/annotations.hpp).
//
// Usage:
//   class Queue {
//    public:
//     void push(Item item) EXCLUDES(mutex_) {
//       util::MutexLock lock(mutex_);
//       items_.push_back(std::move(item));   // checked: mutex_ held
//       ready_.notify_one();
//     }
//    private:
//     util::Mutex mutex_;
//     util::CondVar ready_;
//     std::deque<Item> items_ GUARDED_BY(mutex_);
//   };
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/annotations.hpp"

namespace mfdfp::util {

/// std::mutex with the capability attribute. Satisfies BasicLockable, so
/// it still works with std:: lock machinery where needed.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }

  /// The wrapped handle, for interop that the analysis cannot follow
  /// anyway (callers should pair it with NO_THREAD_SAFETY_ANALYSIS).
  [[nodiscard]] std::mutex& native() noexcept { return mutex_; }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// RAII guard: acquires in the constructor, releases in the destructor.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII guard that can release early (for unlock-work-relock patterns);
/// the destructor only unlocks if still held.
class SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~ReleasableMutexLock() RELEASE() {
    if (held_) mutex_.unlock();
  }

  void Release() RELEASE() {
    mutex_.unlock();
    held_ = false;
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex& mutex_;
  bool held_ = true;
};

/// Condition variable that waits on a held util::Mutex. Built on
/// condition_variable_any so it can wait on the annotated wrapper
/// directly — no unique_lock juggling at call sites, and every wait
/// declares REQUIRES(mutex) like any other under-lock helper.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mutex`, blocks, and reacquires before
  /// returning. The analysis cannot model the release-reacquire cycle,
  /// so the body opts out; the REQUIRES contract still checks callers.
  void wait(Mutex& mutex) REQUIRES(mutex) NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mutex);
  }

  template <typename Predicate>
  void wait(Mutex& mutex, Predicate predicate) REQUIRES(mutex)
      NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mutex, std::move(predicate));
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mutex,
                          std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mutex) NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mutex, timeout);
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mutex, std::chrono::duration<Rep, Period> timeout,
                Predicate predicate) REQUIRES(mutex)
      NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mutex, timeout, std::move(predicate));
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace mfdfp::util
