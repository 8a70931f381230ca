// DeviceSpec + ExecutionBackend: the engine <-> accelerator boundary.
//
// The serving stack treats the accelerator as a first-class, separately
// provisioned artifact — the paper's codesign premise — instead of an
// implicit per-engine default. A DeviceSpec names one device instance and
// carries its provisioning: a `speed_factor` that scales the cycle model's
// effective clock (a 2x device finishes every batch in half the modeled
// time), plus optional per-device overrides of the engine's worker count,
// batch limit, and queue capacity. DeployConfig.placement lists one
// DeviceSpec per replica, so one model name can front differently
// provisioned accelerators ("heterogeneous replicas"); an empty placement
// keeps the historical homogeneous behaviour.
//
// ExecutionBackend is the seam the InferenceEngine submits prepared batches
// through. The engine owns admission, queueing, batching, and stats; the
// backend owns *what executes the batch and what it costs*: execute()
// returns the logits plus the device-scaled simulated latency and DMA bytes
// of the batch, and the cost accessors (sample_us / batch_dma_bytes) feed
// admission control and load-normalized routing. Pacing to the modeled
// device lives in one place, the SharedDevice dispatcher
// (serve/shared_device.hpp): a paced dedicated device is a one-tenant
// SharedDevice placed with DeviceSpec::on(pu). SimulatedAcceleratorBackend — the only
// production implementation — serves each member's deploy-time CompiledPlan
// (bit-identical to the reference AcceleratorExecutor::run()) plus the
// hw::CycleModel / hw::TrafficModel accounting. SharedDeviceBackend
// (serve/shared_device.hpp) puts several engines on one PU through the same
// seam, and tests inject stub backends to exercise the engine against
// synthetic devices. Which device a backend runs on is not the backend's
// to say: the engine's resolved DeployConfig.device is the one record.
//
// Thread-safety contract (binding on every implementation):
//   - execute() is called concurrently from every worker thread of every
//     engine deployed on the backend (each caller with its own ExecScratch);
//     implementations must be const-safe under that, like
//     compile::run_plan_batch is. execute() may block (a shared
//     device serializes tenants' passes), but must eventually return for
//     every call — the engine's drain-on-stop guarantee depends on it.
//   - The cost accessors (sample_us / batch_dma_bytes) and
//     cross_tenant_backlog_us() are called concurrently with execute() from
//     submit paths (admission control) and from ReplicaSet routing; they
//     must be safe without external locking.
//
// Lifetime contract: engines hold the backend by shared_ptr<const ...>, so
// a backend outlives every engine deployed on it and stays readable (stats,
// costs) after the last engine drains. A backend must not retain pointers
// into an execute() caller's arguments beyond the call. DeviceSpec::shared
// (when set) keeps the underlying SharedDevice alive for as long as any
// config, engine, or backend still references the placement entry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "hw/cost_model.hpp"
#include "hw/executor.hpp"
#include "hw/layer_profile.hpp"
#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace mfdfp::compile {
class PlanCache;  // compile/plan_cache.hpp
}

namespace mfdfp::serve {

class SharedDevice;  // serve/shared_device.hpp: one PU shared by N engines

/// How a ReplicaSet picks the replica for a submission.
enum class RoutingPolicy : std::uint8_t {
  /// Least *normalized* outstanding work: outstanding requests x per-sample
  /// modeled cost on that replica's device (i.e. work units / device speed).
  /// A 2x-provisioned replica reports half the delay per queued request, so
  /// it absorbs 2x the traffic. The default.
  kNormalizedWork = 0,
  /// Speed-blind: least outstanding request *count*, ignoring device
  /// provisioning. The ablation baseline — on heterogeneous placements it
  /// queues as much behind a 1x device as behind a 4x one.
  kOutstandingCount = 1,
};

[[nodiscard]] constexpr const char* routing_policy_name(
    RoutingPolicy policy) noexcept {
  return policy == RoutingPolicy::kNormalizedWork ? "normalized_work"
                                                  : "outstanding_count";
}

/// One named, capability-carrying accelerator instance.
struct DeviceSpec {
  /// Display/routing identity ("npu0", "edge-a", ...). Empty = auto-named
  /// "dev<replica_index>" at deploy time.
  std::string name;

  /// Provisioning relative to the baseline AcceleratorConfig clock: the
  /// modeled clock is clock_hz * speed_factor, so every cycle-model latency
  /// divides by it. Must be > 0 (deploy rejects other values).
  double speed_factor = 1.0;

  /// Per-device overrides of the engine defaults; 0 = inherit the
  /// DeployConfig value.
  std::size_t workers = 0;
  std::size_t max_batch = 0;
  std::size_t queue_capacity = 0;

  /// Non-null = this placement entry names a *shared* physical PU
  /// (serve/shared_device.hpp) instead of provisioning a private one:
  /// every deployment whose placement carries the same handle attaches a
  /// tenant backend to that one device, contending for — and co-batching
  /// on — its cycles. `name` and `speed_factor` above are ignored in favour
  /// of the shared device's own spec; the scheduling overrides (workers /
  /// max_batch / queue_capacity) still apply to the tenant engine. The
  /// shared_ptr keeps the device alive as long as any config or engine
  /// references it.
  std::shared_ptr<SharedDevice> shared;

  [[nodiscard]] bool valid() const noexcept {
    return shared != nullptr || speed_factor > 0.0;
  }

  /// Placement entry for a shared PU: `DeviceSpec::on(pu)` in a
  /// DeployConfig.placement co-locates this deployment with every other
  /// deployment placed on `pu`.
  [[nodiscard]] static DeviceSpec on(std::shared_ptr<SharedDevice> device) {
    DeviceSpec spec;
    spec.shared = std::move(device);
    return spec;
  }
};

/// One executed batch, as the backend reports it to the engine.
struct BatchResult {
  tensor::Tensor logits;       ///< {B, classes}
  double sim_accel_us = 0.0;   ///< device-scaled modeled latency of the batch
  double sim_dma_bytes = 0.0;  ///< modeled DMA bytes of the batch
};

/// Scheduling hints the engine passes down with a batch. Hints never change
/// what the batch computes — logits are bit-identical with any hint values —
/// only how a backend that multiplexes callers may order it.
struct ExecHints {
  /// True when any request in the batch is Priority::kInteractive: a
  /// preemptible shared PU routes the sub-batch through its interactive
  /// lane (probes can suspend an in-flight batch pass between chunks and
  /// jump its coalesce window). Dedicated backends ignore it.
  bool interactive = false;
};

/// An engine's accepted-but-unresolved requests per priority lane, queued
/// plus executing. The engine owns and writes the counts; its backend may
/// read them (see ExecutionBackend::share_outstanding).
struct OutstandingCounts {
  std::array<std::atomic<std::size_t>, kPriorityClasses> lanes{};

  [[nodiscard]] std::size_t total() const noexcept {
    std::size_t sum = 0;
    for (const auto& lane : lanes) sum += lane.load(std::memory_order_relaxed);
    return sum;
  }
};

/// The engine-side view of one accelerator device (see file comment).
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Executes one stacked batch ({B, C, H, W}, the plan's native layout)
  /// and returns logits plus the batch's modeled cost on this device.
  /// Called concurrently from all worker threads, each with its own
  /// scratch. `hints` may reorder how a multiplexing backend schedules the
  /// batch, never what it computes (see ExecHints); backends that don't
  /// multiplex callers ignore them.
  [[nodiscard]] virtual BatchResult execute(const tensor::Tensor& stacked,
                                            hw::ExecScratch& scratch,
                                            const ExecHints& hints) const = 0;

  /// Device-scaled modeled latency of one sample, microseconds. This is the
  /// unit of normalized routing and of the engine's admission-control delay
  /// estimate; a batch of n samples costs n x sample_us() (samples stream
  /// back to back through one processing unit).
  [[nodiscard]] virtual double sample_us() const noexcept = 0;

  /// Modeled DMA bytes of a batch (weights once, activations per sample).
  [[nodiscard]] virtual double batch_dma_bytes(std::size_t batch_size) const = 0;

  /// Model members executing on this device (>= 1; > 1 = ensemble).
  [[nodiscard]] virtual std::size_t member_count() const noexcept = 0;

  /// Modeled microseconds of work *other* engines have committed to this
  /// backend's device but not finished — the cross-tenant backlog of a
  /// shared PU. The engine adds this to its own outstanding work when
  /// estimating queue delay, so admission control and normalized-work
  /// routing price the device's true aggregate load, not just one tenant's
  /// slice. Dedicated (single-engine) backends return 0.
  [[nodiscard]] virtual double cross_tenant_backlog_us() const noexcept {
    return 0.0;
  }

  /// Called once, by the engine's constructor, with the engine's own
  /// outstanding counts. A shared device keeps them until the tenant is
  /// released and prices this tenant's committed work from them into the
  /// other tenants' cross_tenant_backlog_us(). Default: no-op — a
  /// dedicated backend serves one engine whose own counters already tell
  /// the whole story.
  virtual void share_outstanding(
      std::shared_ptr<const OutstandingCounts> /*counts*/) const {}

  /// Accumulated per-layer profiles of this backend's model members, one
  /// LayerProfile per member in member order (see hw/layer_profile.hpp).
  /// Safe concurrently with execute(). Backends without a simulated
  /// accelerator behind them (test stubs) return an empty vector.
  [[nodiscard]] virtual std::vector<hw::LayerProfile> layer_profiles() const {
    return {};
  }
};

/// Production backend: the paper's simulated accelerator. Holds one
/// deploy-time CompiledPlan per model member (one simulated processing unit
/// each, logits averaged for ensembles) and prices every batch on
/// hw::CycleModel (latency, scaled by the device's speed_factor — ensemble
/// latency is the max over members, batch latency is sequential samples) and
/// hw::TrafficModel (DMA bytes: weights fetched once per batch, activations
/// per sample; *not* speed-scaled — speed provisions compute, and the
/// paper's DMA is double-buffered behind it).
class SimulatedAcceleratorBackend final : public ExecutionBackend {
 public:
  /// `members` must be non-empty and share the {in_c, in_h, in_w} input
  /// geometry. `device` only prices the members (its speed_factor scales
  /// sample_us); the backend keeps no copy of it. Throws
  /// std::invalid_argument on an empty member list or an invalid device
  /// (speed_factor <= 0).
  ///
  /// Every member is compiled (compile_qnet: lowered, verified and proven
  /// safe) into a CompiledPlan that execute() runs. A non-null `plan_cache`
  /// shares plans across backends: replicas and shared-PU tenants deploying
  /// identical content at the same input geometry reuse one artifact. The
  /// backend pins its plans by shared_ptr, so cache eviction or a hot
  /// redeploy never invalidates a deployed backend (see
  /// compile/plan_cache.hpp).
  SimulatedAcceleratorBackend(
      std::vector<hw::QNetDesc> members, hw::AcceleratorConfig accel,
      const DeviceSpec& device, std::size_t in_c, std::size_t in_h,
      std::size_t in_w,
      const std::shared_ptr<compile::PlanCache>& plan_cache = nullptr);

  /// Hints are ignored: a dedicated device serves one caller's batch at a
  /// time.
  [[nodiscard]] BatchResult execute(const tensor::Tensor& stacked,
                                    hw::ExecScratch& scratch,
                                    const ExecHints& hints) const override;
  [[nodiscard]] double sample_us() const noexcept override {
    return sample_us_;
  }
  [[nodiscard]] double batch_dma_bytes(std::size_t batch_size) const override;
  [[nodiscard]] std::size_t member_count() const noexcept override {
    return plans_.size();
  }
  [[nodiscard]] std::vector<hw::LayerProfile> layer_profiles() const override;

  [[nodiscard]] const hw::AcceleratorConfig& accel() const noexcept {
    return accel_;
  }

  /// The compiled plan of member `member` (null when out of range).
  [[nodiscard]] std::shared_ptr<const compile::CompiledPlan> plan(
      std::size_t member = 0) const {
    return member < plans_.size() ? plans_[member] : nullptr;
  }

 private:
  hw::AcceleratorConfig accel_;
  /// Deploy-time compiled plans, one per member. shared_ptr pins each plan
  /// across cache eviction / redeploy.
  std::vector<std::shared_ptr<const compile::CompiledPlan>> plans_;
  /// One profiling sink per member; every worker thread's plan passes
  /// report into them.
  std::vector<std::unique_ptr<hw::LayerProfiler>> profilers_;

  // Per-sample modeled costs, precomputed from the members' workloads.
  double sample_us_ = 0.0;         ///< max over members, / speed_factor
  double weight_dma_bytes_ = 0.0;  ///< sum over members, once per batch
  double act_dma_bytes_ = 0.0;     ///< sum over members, per sample
};

}  // namespace mfdfp::serve
