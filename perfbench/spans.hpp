// Benchmark-side span recorder: one span per public call the benchmark makes
// into the system (name, start, end, parent span, request id), kept in
// memory and written as Chrome trace-event JSON when the run ends. Nothing
// inside the library is instrumented; spans wrap the calls from outside.
//
// Recording is off unless a SpanRecorder is enabled; a disabled recorder
// costs one branch per call site. Spans beyond `capacity` are counted as
// dropped instead of growing memory without bound.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< 0 = not a per-request span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// Per-name totals: call count, summed duration, and self time (duration
/// minus the part covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// A fresh span id (ids are unique per recorder, never 0).
  std::uint64_t next_id() {
    return last_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void record(const SpanRecord& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }
  [[nodiscard]] std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Per-name count / total / self time over every recorded span. Children
  /// are matched by parent id; their overlap with the parent is clamped to
  /// the parent's interval.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, std::int64_t> child_ns;
    std::map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& span : spans_) by_id[span.id] = &span;
    for (const SpanRecord& span : spans_) {
      if (span.parent == 0) continue;
      const auto parent = by_id.find(span.parent);
      if (parent == by_id.end()) continue;
      const std::int64_t begin = std::max(span.start_ns,
                                          parent->second->start_ns);
      const std::int64_t end = std::min(span.end_ns, parent->second->end_ns);
      if (end > begin) child_ns[span.parent] += end - begin;
    }
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord& span : spans_) {
      SpanTotals& row = out[span.name];
      const std::int64_t duration = span.end_ns - span.start_ns;
      const auto child = child_ns.find(span.id);
      const std::int64_t children = child == child_ns.end() ? 0 : child->second;
      ++row.count;
      row.total_ms += static_cast<double>(duration) / 1e6;
      row.self_ms += static_cast<double>(std::max<std::int64_t>(
                         0, duration - children)) /
                     1e6;
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "X" (complete) event;
  /// timestamps are microseconds from the first span. Returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::int64_t origin = 0;
    if (!spans_.empty()) {
      origin = std::min_element(spans_.begin(), spans_.end(),
                                [](const SpanRecord& a, const SpanRecord& b) {
                                  return a.start_ns < b.start_ns;
                                })
                   ->start_ns;
    }
    std::fputs("{\"traceEvents\":[\n", file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      std::fprintf(file,
                   "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"span\":%llu,\"parent\":%llu,"
                   "\"request\":%llu}}%s\n",
                   span.name,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   span.tid, static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request_id),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "],\"displayTimeUnit\":\"ns\",\"otherData\":"
                       "{\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(file) == 0;
  }

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

/// Small dense id for the calling thread (Chrome "tid").
inline std::uint32_t thread_tag() {
  static std::mutex mutex;
  static std::map<std::thread::id, std::uint32_t> tags;
  thread_local std::uint32_t tag = [] {
    const std::lock_guard<std::mutex> lock(mutex);
    return tags.emplace(std::this_thread::get_id(),
                        static_cast<std::uint32_t>(tags.size() + 1))
        .first->second;
  }();
  return tag;
}

/// RAII span: records [construction, destruction) when the recorder is
/// enabled; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name,
             std::uint64_t parent = 0, std::uint64_t request_id = 0)
      : recorder_(recorder.enabled() ? &recorder : nullptr) {
    if (recorder_ == nullptr) return;
    span_.name = name;
    span_.id = recorder_->next_id();
    span_.parent = parent;
    span_.request_id = request_id;
    span_.tid = thread_tag();
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (recorder_ == nullptr) return;
    span_.end_ns = now_ns();
    recorder_->record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, for children (0 when recording is off).
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecord span_;
};

}  // namespace perfbench
