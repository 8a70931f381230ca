// Request/response types of the serving layer.
//
// A request carries one input sample (one image, {C,H,W} or {1,C,H,W}) plus
// its priority class, arrival timestamp and optional absolute deadline; the
// response carries a typed StatusCode (status.hpp), the logits, and the
// per-request accounting the stats collector aggregates: wall-clock
// queue/service/e2e times and the *simulated* accelerator cost of the batch
// the request rode in (cycle-model latency, traffic-model DMA bytes). Wall
// times measure the host serving stack; simulated times are what the paper's
// accelerator would take — keeping both lets the benches separate scheduling
// overhead from modeled hardware speed.
#pragma once

#include <cstdint>
#include <future>
#include <limits>
#include <string>

#include "serve/status.hpp"
#include "tensor/tensor.hpp"

namespace mfdfp::serve {

using RequestId = std::uint64_t;

/// Scheduling class of a request. Strict priority: the queue always drains
/// kInteractive before kBatch, and admission control only ever sheds kBatch.
enum class Priority : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive; never shed
  kBatch = 1,        ///< throughput traffic; shed under overload
};

inline constexpr std::size_t kPriorityClasses = 2;

[[nodiscard]] constexpr const char* priority_name(Priority priority) noexcept {
  return priority == Priority::kInteractive ? "interactive" : "batch";
}

/// Per-submit options of the ModelServer / engine front door.
struct SubmitOptions {
  Priority priority = Priority::kInteractive;
  /// Absolute deadline on the util::Stopwatch::now_us clock.
  /// -1 = use the model's configured default; 0 = no deadline.
  std::int64_t deadline_us = -1;
};

struct Response {
  StatusCode status = StatusCode::kInvalidInput;
  std::string detail;     ///< human-readable failure context (logs only)
  tensor::Tensor logits;  ///< {1, classes}; empty unless status == kOk
  int predicted_class = -1;

  // Which deployment served the request (empty/0 on pre-dispatch failures).
  std::string model;
  std::uint32_t model_version = 0;
  /// Index of the replica that executed the request within its ReplicaSet
  /// (0 for single-replica deployments; meaningful only when status == kOk).
  std::uint32_t replica = 0;
  /// Name of the accelerator device that executed the request (the
  /// replica's DeviceSpec; empty on pre-dispatch failures).
  std::string device;
  Priority priority = Priority::kInteractive;

  // Wall-clock accounting (microseconds, host monotonic clock).
  std::int64_t queue_wait_us = 0;  ///< enqueue -> batch formation
  std::int64_t service_us = 0;     ///< batch formation -> completion
  std::int64_t e2e_us = 0;         ///< enqueue -> completion

  // Batch context.
  std::size_t batch_size = 0;  ///< how many requests shared the batch

  // Simulated-hardware accounting (note the differing attribution:
  // sim_accel_us is the whole batch's latency — every rider experienced all
  // of it — while DMA bytes are divided across the batch's requests so
  // summing responses never double-counts traffic).
  double sim_accel_us = 0.0;   ///< cycle-model latency of the whole batch
  double sim_dma_bytes = 0.0;  ///< traffic-model bytes, this request's share
};

struct Request {
  RequestId id = 0;
  tensor::Tensor input;
  Priority priority = Priority::kInteractive;
  std::int64_t enqueue_us = 0;   ///< util::Stopwatch::now_us() at submit
  std::int64_t deadline_us = 0;  ///< absolute, same clock; 0 = no deadline
  std::promise<Response> promise;
};

/// `base_us + budget_us`, saturated at the int64 limits: a configured
/// budget near INT64_MAX means "effectively never", so deadlines and batch
/// close times derived from it must clamp instead of overflowing.
[[nodiscard]] constexpr std::int64_t saturating_add_us(
    std::int64_t base_us, std::int64_t budget_us) noexcept {
  std::int64_t sum = 0;
  if (!__builtin_add_overflow(base_us, budget_us, &sum)) return sum;
  return budget_us > 0 ? std::numeric_limits<std::int64_t>::max()
                       : std::numeric_limits<std::int64_t>::min();
}

/// Fails a request with a ready response carrying `code`.
inline void fail_request(Request& request, StatusCode code,
                         std::string detail = "") {
  Response response;
  response.status = code;
  response.detail = std::move(detail);
  response.priority = request.priority;
  request.promise.set_value(std::move(response));
}

/// An already-resolved failure future, for rejections that never reach a
/// queue (model not found, server shut down, ...). Stamps the submitter's
/// priority so failure accounting by class stays correct pre-dispatch.
[[nodiscard]] inline std::future<Response> ready_failure(
    StatusCode code, std::string detail = "",
    Priority priority = Priority::kInteractive) {
  std::promise<Response> promise;
  Response response;
  response.status = code;
  response.detail = std::move(detail);
  response.priority = priority;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace mfdfp::serve
