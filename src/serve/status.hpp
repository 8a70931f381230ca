// Typed status taxonomy of the serving layer.
//
// Every request submitted to the serving front door resolves with exactly one
// StatusCode; the old `bool ok + std::string error` contract is gone. The
// taxonomy distinguishes *why* a request failed, because the caller's correct
// reaction differs per code:
//
//   code                | meaning                                | caller reaction
//   --------------------+----------------------------------------+---------------------------
//   kOk                 | served; logits valid                   | consume result
//   kQueueFull          | bounded queue at capacity at submit    | back off / retry later
//   kDeadlineExceeded   | deadline passed (at submit or queued)  | drop; raise deadline
//   kInvalidInput       | sample shape != deployed geometry, or  | fix the request (no retry)
//                       | a NaN in the sample                    |
//   kModelNotFound      | no model deployed under that name      | fix routing (no retry)
//   kShuttingDown       | engine/server stopped or stopping      | fail over to another node
//   kShedded            | admission control refused kBatch work  | retry after backlog drains
//                       | (estimated queue delay > deadline      |
//                       |  budget)                               |
//
// Accounting: kDeadlineExceeded counts as `timed_out`, kShedded as `shedded`,
// and kQueueFull / kInvalidInput / kShuttingDown as `rejected` in
// ServerStats — so a load test can separate overload behaviour (sheds,
// timeouts) from client errors (rejections).
//
// `Response` carries `StatusCode status` plus a human-readable `detail`
// string for diagnostics only — dispatching on `detail` text is a bug;
// dispatch on the code.
#pragma once

#include <stdexcept>
#include <string>

namespace mfdfp::serve {

enum class StatusCode {
  kOk = 0,
  kQueueFull,
  kDeadlineExceeded,
  kInvalidInput,
  kModelNotFound,
  kShuttingDown,
  kShedded,
  /// deploy() refused a nonsensical DeployConfig (zero workers, negative
  /// deadline, zero-capacity queue, ...) before building anything.
  kInvalidConfig,
  /// deploy() refused a model whose compiled plan failed the numeric
  /// static analyzer (src/analysis): possible accumulator overflow or an
  /// inconsistent DFP radix chain for the deployed geometry.
  kUnsafePlan,
  /// deploy() refused a placement whose declared TrafficEnvelope fails a
  /// schedulability proof obligation (src/analysis/capacity.hpp): the
  /// placement cannot meet its deadlines, so it never serves a request.
  kInfeasibleSlo,
};

/// True when `code` means the request was served and the logits are valid.
[[nodiscard]] constexpr bool ok(StatusCode code) noexcept {
  return code == StatusCode::kOk;
}

/// Stable lower_snake_case name, for logs, tables, and JSON.
[[nodiscard]] constexpr const char* status_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:               return "ok";
    case StatusCode::kQueueFull:        return "queue_full";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kInvalidInput:     return "invalid_input";
    case StatusCode::kModelNotFound:    return "model_not_found";
    case StatusCode::kShuttingDown:     return "shutting_down";
    case StatusCode::kShedded:          return "shedded";
    case StatusCode::kInvalidConfig:    return "invalid_config";
    case StatusCode::kUnsafePlan:       return "unsafe_plan";
    case StatusCode::kInfeasibleSlo:    return "infeasible_slo";
  }
  return "unknown";
}

/// Typed deploy-time rejection: carries the StatusCode explaining *why*
/// deploy() refused (kInvalidConfig for nonsensical DeployConfigs,
/// kUnsafePlan when the numeric analyzer rejected the compiled plan,
/// kInfeasibleSlo when the capacity analyzer proved the placement cannot
/// meet its declared TrafficEnvelope).
/// Derives from std::invalid_argument so callers of the pre-typed API
/// keep catching what they always caught; new code dispatches on code().
class DeployError : public std::invalid_argument {
 public:
  DeployError(StatusCode code, const std::string& what)
      : std::invalid_argument(what), code_(code) {}

  [[nodiscard]] StatusCode code() const noexcept { return code_; }

 private:
  StatusCode code_;
};

}  // namespace mfdfp::serve
