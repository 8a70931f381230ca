// InferenceEngine: the per-model serving unit behind ModelServer.
//
// Owns the *scheduling* half of one deployed replica — the request queue and
// the worker threads that drain it batch by batch — and submits
// every prepared batch to an ExecutionBackend (serve/device.hpp), which
// owns the *execution* half: the accelerator device the replica was placed
// on, what runs the batch, and what it costs. The production backend is
// SimulatedAcceleratorBackend — a single QNetDesc or an ensemble of members
// (one simulated processing unit each, logits averaged as in paper Section
// 4.3), each served by its deploy-time CompiledPlan (compile_qnet: lowered,
// verified and proven safe; bit-identical to the reference
// AcceleratorExecutor::run()) and costed on the paper's hardware
// models: latency from hw::CycleModel scaled by the device's speed_factor
// (ensemble = max over members, batch = sequential samples) and DMA bytes
// from hw::TrafficModel (weights fetched once per batch — the traffic win of
// batching — activations per sample).
// SharedDeviceBackend puts the engine on a PU it shares with other engines,
// and tests inject stub backends through the backend constructor to
// exercise the engine against synthetic devices. Either way the engine's
// resolved DeployConfig.device is the one record of which device it runs
// on.
//
// Scheduling: the queue drains strict priority (kInteractive before kBatch)
// when `priority_scheduling` is on, and `admission_control` sheds kBatch
// requests at submit time when the estimated queue delay (outstanding
// requests — queued plus executing — x the *device's own* per-sample
// modeled cost, plus the other tenants' committed work on a shared PU)
// already exceeds the request's deadline budget — an
// overloaded engine fails cheap traffic fast instead of queueing work it
// cannot finish in time, and a 2x-provisioned device admits 2x deeper
// backlogs for the same budget. Requests whose deadline has already passed
// at submit fail immediately with kDeadlineExceeded (counted as timed_out)
// instead of occupying a queue slot until batch formation.
//
// The engine keeps its per-lane outstanding counts in one OutstandingCounts
// block and lends it read-only to its backend once, from the constructor
// (ExecutionBackend::share_outstanding): a shared PU prices every tenant's
// committed work from its engine's counts, so there is one source of load.
//
// Clients normally reach an engine through ModelServer (server.hpp), which
// maps names to replica sets of engines; the engine itself is name-agnostic
// beyond stamping responses with the model name/version/device it was
// deployed as.
//
// Thread-safety: submit() may be called from any number of client threads;
// stop() is idempotent and drains the queue before returning, so no promise
// is ever abandoned. Concurrent stop() callers (the destructor racing
// ReplicaSet::stop) all return only after every worker has exited.
#pragma once

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/capacity.hpp"
#include "hw/cost_model.hpp"
#include "hw/executor.hpp"
#include "serve/device.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"

namespace mfdfp::compile {
class PlanCache;  // compile/plan_cache.hpp
}

namespace mfdfp::serve {

/// Per-deployment configuration (one model behind the ModelServer).
struct DeployConfig {
  /// Input geometry of one sample (the engine validates every submit).
  std::size_t in_c = 3, in_h = 32, in_w = 32;

  // Batching policy.
  std::size_t max_batch = 8;
  std::int64_t max_wait_us = 2000;

  std::size_t workers = 4;
  std::size_t queue_capacity = 1024;

  /// Applied to requests submitted without an explicit deadline; 0 = none.
  std::int64_t default_deadline_us = 0;

  // Scheduling policies (see file comment).
  bool priority_scheduling = true;  ///< strict-priority queue drain
  bool admission_control = true;    ///< shed kBatch when delay > budget

  /// Per-replica device placement (see serve/replica_set.hpp): one
  /// replica — a full InferenceEngine with its own queue, workers, and
  /// accelerator device — per entry, so {.speed_factor = 1},
  /// {.speed_factor = 2} deploys two differently-provisioned accelerators
  /// behind one name and `placement.assign(n, device)` n identical ones.
  /// Empty (the default) = one replica on `device`. Deploy throws
  /// std::invalid_argument on any entry with speed_factor <= 0.
  std::vector<DeviceSpec> placement;

  /// How the ReplicaSet picks a replica: least normalized outstanding work
  /// (the default — a 2x device absorbs 2x traffic) or speed-blind least
  /// outstanding count (the ablation baseline; see serve/device.hpp).
  RoutingPolicy routing = RoutingPolicy::kNormalizedWork;

  /// QoS quota: max outstanding kBatch requests across the *whole* replica
  /// set; excess kBatch submissions resolve kShedded in the set. 0 =
  /// unlimited. Interactive traffic is never quota-limited.
  std::size_t batch_quota = 0;

  /// Identity stamped into responses; ModelServer::deploy fills these
  /// and the ReplicaSet fills replica_index and device.
  std::string model_name;
  std::uint32_t model_version = 0;
  std::uint32_t replica_index = 0;

  /// The device this engine executes on (per-replica; the ReplicaSet copies
  /// placement[replica_index] here, merged with the PU's own spec for a
  /// shared placement). Its nonzero workers / max_batch / queue_capacity
  /// override the engine defaults above, and its speed_factor scales every
  /// modeled latency. An empty name auto-fills "dev<replica_index>".
  DeviceSpec device{};

  /// Baseline accelerator instance used for the simulated-latency/DMA
  /// accounting; `device.speed_factor` scales its effective clock.
  hw::AcceleratorConfig accel{};

  /// Declared traffic contract for this model (see
  /// analysis/capacity.hpp). Default (arrival_rps == 0) = no envelope:
  /// ModelServer::deploy() skips the schedulability analysis. With one
  /// declared, deploy() statically proves the placement can meet the
  /// envelope's deadlines and rejects infeasible placements as
  /// DeployError{kInfeasibleSlo} (or logs the violated proofs when
  /// envelope.warn_only is set) before the model serves a request.
  analysis::TrafficEnvelope envelope{};

  /// Plan cache shared across deployments, replicas, and shared-PU tenants.
  /// Null = ModelServer fills in its server-wide cache on deploy (a bare
  /// InferenceEngine compiles uncached). Plans are pinned by the backends
  /// that execute them, so eviction/redeploy never invalidates in-flight
  /// work (see compile/plan_cache.hpp).
  std::shared_ptr<compile::PlanCache> plan_cache;
};

class InferenceEngine {
 public:
  /// Deploys `members` (>= 1; > 1 = averaged-logit ensemble) on a
  /// SimulatedAcceleratorBackend built from config.accel + config.device,
  /// and starts the workers. All members must share the input geometry
  /// in `config`.
  InferenceEngine(std::vector<hw::QNetDesc> members, DeployConfig config);

  /// Deploys onto an explicit backend (the API seam: ReplicaSet attaches
  /// shared-PU tenants, tests inject stubs). `config.device` names the
  /// device the backend runs on. Throws std::invalid_argument on a null
  /// backend.
  InferenceEngine(std::shared_ptr<const ExecutionBackend> backend,
                  DeployConfig config);

  /// Stops and joins the workers (drains pending requests first).
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Submits one sample ({C,H,W} or {1,C,H,W}). The future resolves when a
  /// worker completes the request's batch; rejected/shed/expired
  /// submissions resolve immediately with the matching StatusCode.
  [[nodiscard]] std::future<Response> submit(tensor::Tensor sample,
                                             SubmitOptions options = {});

  /// Closes the queue, drains in-flight work, joins the workers.
  /// Idempotent; submit() after stop() resolves kShuttingDown.
  void stop();

  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_depth(Priority priority) const {
    return queue_.size(priority);
  }
  [[nodiscard]] const DeployConfig& config() const noexcept {
    return config_;
  }

  /// The device this engine executes on (resolved: auto-name filled in,
  /// overrides applied) — what every Response.device and stats row
  /// carries.
  [[nodiscard]] const DeviceSpec& device() const noexcept {
    return config_.device;
  }
  [[nodiscard]] const ExecutionBackend& backend() const noexcept {
    return *backend_;
  }

  /// Requests accepted but not yet resolved: queued plus in execution.
  /// queue depth alone goes blind while a worker holds a popped batch.
  [[nodiscard]] std::size_t outstanding(Priority priority) const noexcept {
    return outstanding_->lanes[static_cast<std::size_t>(priority)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t outstanding_total() const noexcept {
    return outstanding_->total();
  }

  [[nodiscard]] std::size_t member_count() const noexcept {
    return backend_->member_count();
  }

  /// Accumulated per-layer profiles of the backend's model members, one per
  /// member (see hw/layer_profile.hpp). Empty for injected stub backends
  /// without a simulated accelerator behind them. Safe while serving.
  [[nodiscard]] std::vector<hw::LayerProfile> layer_profiles() const {
    return backend_->layer_profiles();
  }

  /// Modeled latency of one sample on this engine's device, microseconds
  /// (max over ensemble members — one processing unit each — divided by the
  /// device's speed_factor).
  [[nodiscard]] double simulated_sample_us() const noexcept {
    return backend_->sample_us();
  }

  /// Modeled DMA bytes of one batch (weights once, activations per sample).
  [[nodiscard]] double simulated_batch_dma_bytes(
      std::size_t batch_size) const {
    return backend_->batch_dma_bytes(batch_size);
  }

  /// Admission-control estimate: outstanding work (queued + executing) in
  /// modeled microseconds on this device — including, on a shared PU, the
  /// work *other* tenants have already committed to the device, so a model
  /// that is idle itself still sheds against a neighbour's flood instead of
  /// queueing work the contended device cannot finish in time. This is also
  /// the load normalized-work replica routing balances, and the same
  /// analysis::committed_delay_us() formula the deploy-time capacity
  /// analyzer builds its proofs from (single source of truth; see
  /// analysis/capacity.hpp).
  [[nodiscard]] double estimated_queue_delay_us() const {
    return analysis::committed_delay_us(
        static_cast<double>(outstanding_total()), backend_->sample_us(),
        backend_->cross_tenant_backlog_us());
  }

 private:
  /// Applies device overrides (workers/max_batch/queue_capacity, auto-name)
  /// onto the raw config, then validates it. Idempotent, so the members
  /// ctor can resolve before building its backend and delegate.
  [[nodiscard]] static DeployConfig resolve_config(DeployConfig config);

  /// The members ctor's backend, built on the resolved config's device.
  [[nodiscard]] static std::shared_ptr<const ExecutionBackend>
  simulated_backend(std::vector<hw::QNetDesc> members,
                    const DeployConfig& config);

  /// Interns this deployment's trace names (model tag, per-lane categories,
  /// queue-depth counter tracks) into the process-global obs::trace()
  /// recorder, so the serving hot path only ever passes stable pointers.
  void init_trace_identity();

  /// Drains pop_batch() until the queue is closed and empty: fails the
  /// requests whose deadline passed while queued (kDeadlineExceeded,
  /// counted as timed_out) and executes the rest.
  void worker_main(std::size_t worker_index);
  /// Stacks the batch, executes it through the backend (passing ExecHints —
  /// interactive when any rider is kInteractive, so preemptible shared PUs
  /// can prioritize probe sub-batches), and completes every rider.
  void execute_batch(std::vector<Request>& batch, hw::ExecScratch& scratch);

  DeployConfig config_;
  /// Shared, not unique: a drained engine's stats/device stay readable
  /// through ReplicaSet snapshots after undeploy.
  std::shared_ptr<const ExecutionBackend> backend_;

  RequestQueue queue_;
  ServerStats stats_;
  std::atomic<RequestId> next_id_{1};
  std::atomic<bool> stopped_{false};
  /// Started by the ctor, joined once by stop(); concurrent stop() callers
  /// block in call_once until that join finishes.
  std::vector<std::thread> workers_;
  std::once_flag joined_;
  /// Accepted-but-unresolved requests per priority class (see
  /// outstanding()); lent read-only to backend_ by the constructor.
  const std::shared_ptr<OutstandingCounts> outstanding_ =
      std::make_shared<OutstandingCounts>();

  // Interned trace identity (init_trace_identity; stable for the global
  // recorder's lifetime).
  const char* trace_model_ = nullptr;
  std::array<const char*, kPriorityClasses> trace_lane_{};
  std::array<const char*, kPriorityClasses> trace_queue_counter_{};
};

}  // namespace mfdfp::serve
