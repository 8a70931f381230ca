// SharedDevice + SharedDeviceBackend: one physical PU serving many models.
//
// The paper's multiplier-free accelerator is a single cheap fixed-function
// processing unit — cheap enough that a deployment rarely justifies a
// private one per engine replica. A SharedDevice models that one physical
// PU: it owns the device-side batch queue and the single dispatch thread
// that drains it, and any number of InferenceEngines (across any number of
// deployed models) attach to it through the ordinary ExecutionBackend seam.
// `DeviceSpec::on(pu)` in a DeployConfig.placement is all it takes — the
// engine code is unchanged, exactly what the seam was designed for.
//
// Scheduling: every tenant's prepared sub-batches land in per-tenant FIFO
// lanes on the device — one lane per priority class, interactive drained
// first. A pass starts with the next sub-batch of the first tenant with
// work at the round-robin cursor (the *lead*), whose input geometry fixes
// the pass's. One routine then fills it, when it forms and again between
// chunks: each sweep from the cursor takes at most one sub-batch per
// tenant while it is joinable — co-batching on, the same geometry, and
// room under `max_pass_samples`. Unexecuted work is an interactive run
// followed by a batch run, and each admitted sub-batch goes right behind
// its tenant's last one in its run (or at the run's end), so probes ride
// ahead of all batch work, each tenant's run is contiguous (one weight
// reload), and every lane stays FIFO. Geometry-incompatible work waits for
// its own serialized pass. With `cobatch = false` the device degrades to
// classic time-sliced serialization (one sub-batch per pass, strict
// round-robin over tenants) — the ablation baseline of
// bench/ablation_shared_pu.
//
// Execution: every pass runs through one chunk loop. The dispatcher splits
// a pass into same-tenant *chunks* — a chunk never mixes tenants, so it
// pays at most one weight reload, entering it — executes them in order,
// and retires each sub-batch at the end of the chunk that finishes it.
// With the default `preempt_granularity_us == 0` a chunk is a tenant's
// whole contiguous run in the pass: nothing joins mid-pass and nothing
// preempts it, so a probe waits out the whole pass.
//
// Preemption + continuous batching (`preempt_granularity_us > 0`): chunks
// are additionally capped at the granularity's worth of modeled compute
// (never below one sample), and between chunks the dispatcher
//   - fills the in-flight pass again, so late-arriving joinable sub-batches
//     ride it ("joins": the weight reload is already paid, so a joiner
//     rides the current pass instead of waiting out a coalesce window —
//     continuous batching), and
//   - suspends the pass when an interactive probe is pending that *cannot*
//     join (geometry mismatch, pass at capacity, or time slicing): the
//     probe gets its own pass immediately, then the suspended pass resumes.
// Worst-case interactive blocking shrinks from one maximal pass to one
// maximal chunk plus a reload — the tightened term
// `analysis::analyze_capacity` proves and `bench/ablation_shared_pu`
// enforces. Chunking slices sub-batch tensors on sample boundaries and runs
// them through the same compiled plans, so it can never change any
// logit — only when a sub-batch completes.
//
// Cost model: a pass pays
//   - `pass_overhead_us` once (pipeline fill/drain + dispatch), plus
//   - a weight-reload penalty each time the pass switches the PU to a model
//     whose weights are not resident (the incoming model's weight working
//     set over the modeled 8 GB/s reload DMA, or the fixed
//     `model_switch_us` override), plus
//   - each sub-batch's compute (its tenant's cycle-model latency on this
//     device, exactly as a dedicated SimulatedAcceleratorBackend prices it).
// A chunk's reload, and on the first chunk the pass overhead, are
// attributed whole to the chunk's lead sub-batch, so per-tenant busy time
// sums exactly to device busy time. A suspended pass whose tenant was
// evicted by the preempting probe pays the reload again on resume — that
// cost is real on the modeled hardware and is priced by the analyzer's
// preemption overhead term. Weights stay resident across passes until
// another model evicts them, so co-batching's throughput win — amortizing
// reloads and per-pass overhead over more samples — is the same
// statistical-multiplexing effect a real shared accelerator sees. Logits
// are computed by each tenant's own compiled plans regardless of
// pass composition, so co-batching can never change *what* a batch
// computes, only *when* it completes.
//
// Pacing: with `paced = true` (default) the dispatch thread itself holds
// each chunk until its modeled completion time before resolving the
// tenants' execute() calls. This is the serving stack's only pacing
// authority, so N tenant engines — or N workers of one engine — can never
// pace N devices' worth of work out of one PU. A paced *dedicated* device
// is a one-tenant SharedDevice with coalesce_window_us = 0.
//
// Thread-safety: attach() and every accessor may be called from any thread;
// execute() blocks the calling engine worker until its sub-batch retires.
// All shared state is guarded by one device mutex; sub-batch tensors are
// borrowed from the (blocked) caller for the duration of the call, never
// retained. The chunk loop only touches its pass between chunks *under the
// device mutex*, so the dispatcher's own fill is the only writer of an
// in-flight pass.
//
// Lifetime: create() returns a shared_ptr; every attached backend holds one,
// and engines hold their backend — so the device (and its dispatch thread)
// outlives every tenant. The destructor therefore only runs once no tenant
// can submit: it closes the queue and joins an idle dispatcher. Detaching a
// tenant (undeploy / redeploy) is just draining its engine: its in-flight
// sub-batches retire in order, other tenants' lanes are untouched, and its
// accounting rows stay readable in the device snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/device.hpp"
#include "serve/request.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

namespace mfdfp::serve {

struct DeployConfig;  // serve/engine.hpp
class SharedDeviceBackend;

/// One chunk boundary of a device pass, as reported to the
/// SharedDeviceConfig::chunk_hook test seam right after the chunk retired
/// (outside the device mutex, before the next chunk is planned). Lets the
/// deterministic scheduler harness (tests/serve_test_util.hpp) park the
/// dispatcher at exact chunk boundaries and script joins/preemptions.
struct SharedDeviceChunkEvent {
  std::uint64_t pass = 0;   ///< pass sequence number, 1-based
  std::uint64_t chunk = 0;  ///< chunk index within its pass, 0-based
  std::string model;        ///< model the chunk executed
  std::size_t chunk_samples = 0;      ///< samples this chunk executed
  std::size_t remaining_samples = 0;  ///< planned samples still unexecuted
  bool interactive_pass = false;  ///< pass was formed to serve a preemption
  bool preempting = false;  ///< the pass suspends for a probe after this chunk
};

/// Provisioning of one shared PU (see file comment for the cost model).
struct SharedDeviceConfig {
  /// Max samples coalesced into one device pass. Bounds how long a pass —
  /// and therefore any tenant's wait for the *next* pass — can run, which
  /// is what keeps interactive latency bounded under cross-model
  /// interference. The lead sub-batch is always admitted whole, so a pass
  /// holds up to max(max_pass_samples, the lead engine's max_batch)
  /// samples; only the sub-batches that join it are capped.
  std::size_t max_pass_samples = 32;

  /// Coalesce compatible sub-batches from different models into one pass
  /// (true) vs time-sliced serialization — one sub-batch per pass, strict
  /// round-robin over tenants (false; the ablation baseline).
  bool cobatch = true;

  /// How long the dispatcher may hold pass formation waiting for more
  /// sub-batches once at least one is pending, microseconds. At a pass
  /// boundary every rider's engine worker wakes at once and resubmits
  /// within microseconds; without a window the dispatcher would race them
  /// and form a degenerate one-sub-batch pass. The window ends as soon as
  /// a full pass is pending *or* a ~100us slice passes with no new
  /// arrivals (the refill burst is over), so deployments whose engines
  /// cannot fill max_pass_samples pay at most one quiet slice, not the
  /// whole window. Keep it well under a full pass's modeled cost — it is
  /// host-side formation latency. Ignored when cobatch is off (time
  /// slicing serves one sub-batch per pass regardless). With
  /// preempt_granularity_us > 0 a pending interactive sub-batch cuts the
  /// window short — probes never wait on pass formation, and late batch
  /// work joins in-flight passes instead of needing the window.
  std::int64_t coalesce_window_us = 500;

  /// Hold each chunk until its modeled completion time before resolving
  /// the tenants' execute() calls, so wall-clock behaviour tracks the
  /// device's cycle model — one pacing thread per PU, whatever the number
  /// of tenants or engine workers. Pacing per chunk makes a suspension take
  /// effect at the modeled chunk boundary, not after a whole modeled pass.
  bool paced = true;

  /// Fixed per-model switch penalty override, microseconds; > 0 replaces
  /// the reload time derived from the weight working set over the modeled
  /// 8 GB/s reload DMA (benches pin it for determinism).
  double model_switch_us = 0.0;

  /// Fixed per-pass overhead (pipeline fill/drain + dispatch), us.
  double pass_overhead_us = 0.0;

  /// Preemption granularity, microseconds. > 0 makes passes preemptible:
  /// each same-tenant chunk holds at most this much modeled compute (never
  /// less than one sample), and between chunks the dispatcher admits
  /// joinable sub-batches into the pass and serves pending interactive
  /// probes that cannot join (see file comment). 0 (default): one chunk
  /// per tenant run, no joins, no preemption.
  double preempt_granularity_us = 0.0;

  /// Test seam: the microsecond clock the dispatcher paces against; null =
  /// util::Stopwatch::now_us (the host monotonic clock). Lets the
  /// deterministic scheduler harness replay paced schedules in virtual
  /// time. Must be monotone; called without the device mutex only.
  std::function<std::int64_t()> now_us;

  /// Test seam: how the dispatcher sleeps while pacing; null =
  /// std::this_thread::sleep_for. A virtual-time harness advances its
  /// clock here instead of blocking.
  std::function<void(std::int64_t)> sleep_us;

  /// Test seam: called (without the device mutex) after every chunk
  /// retires, at any granularity. The hook may block — the deterministic
  /// harness uses that to hold the dispatcher at a chunk boundary — but
  /// must not deadlock against device shutdown (release it before the
  /// last tenant detaches).
  std::function<void(const SharedDeviceChunkEvent&)> chunk_hook;
};

/// Per-tenant view of a shared device's accounting, one row per attached
/// engine (tenant rows are append-only; a detached tenant's row freezes).
struct SharedTenantRow {
  std::string tenant;         ///< "model@version/r<replica>"
  std::string model;          ///< model name alone
  std::uint64_t sub_batches = 0;  ///< executed sub-batches of this tenant
  std::uint64_t samples = 0;      ///< samples served for this tenant
  double busy_us = 0.0;       ///< modeled device time attributed to tenant
  double pending_us = 0.0;    ///< engine-side queued + executing modeled
                              ///< work right now
  std::uint64_t queued_jobs = 0;  ///< sub-batches waiting in the device
                                  ///< lanes (excludes engine-side queues)
};

/// Consistent view of one shared device (SharedDevice::snapshot()).
struct SharedDeviceSnapshot {
  std::string device;
  double speed_factor = 1.0;
  std::uint64_t passes = 0;           ///< device passes executed
  std::uint64_t cobatched_passes = 0; ///< passes mixing >= 2 models
  std::uint64_t model_switches = 0;   ///< weight reloads paid
  std::uint64_t chunks = 0;       ///< execution chunks: one per
                                  ///< same-tenant run of a pass, more when
                                  ///< the granularity splits runs
  std::uint64_t preemptions = 0;  ///< passes suspended for a probe
  std::uint64_t joined_jobs = 0;  ///< sub-batches that joined in-flight
                                  ///< passes (continuous batching)
  std::uint64_t joined_passes = 0;  ///< passes at least one job joined
  double busy_us = 0.0;               ///< total modeled busy time
  double switch_us = 0.0;             ///< busy time spent reloading weights
  double wall_seconds = 0.0;          ///< observation window
  double utilization = 0.0;           ///< busy / wall, [0, 1] when paced
  std::vector<SharedTenantRow> tenants;
};

class SharedDevice : public std::enable_shared_from_this<SharedDevice> {
 public:
  /// Creates one physical PU with the given identity/provisioning and
  /// starts its dispatch thread. `spec.shared` must be empty (a shared
  /// device cannot itself be placed on another shared device),
  /// `spec.speed_factor` must be > 0, and every modeled time in `config`
  /// (pass_overhead_us, model_switch_us, preempt_granularity_us,
  /// coalesce_window_us) must be finite and >= 0; throws
  /// std::invalid_argument otherwise (NaN included). An empty name becomes
  /// "shared-pu".
  [[nodiscard]] static std::shared_ptr<SharedDevice> create(
      DeviceSpec spec = {}, SharedDeviceConfig config = {});

  /// Joins the dispatch thread. Runs only after every tenant backend (and
  /// thus every engine) released its handle, so the queue is empty.
  ~SharedDevice();

  SharedDevice(const SharedDevice&) = delete;
  SharedDevice& operator=(const SharedDevice&) = delete;

  /// Attaches one tenant engine: builds the compiled plans for
  /// `members` priced on this device's spec, registers a tenant lane, and
  /// returns the ExecutionBackend the engine submits through. Called by
  /// ReplicaSet for every replica whose placement entry carries this
  /// device's handle; `config` supplies geometry and identity
  /// (model_name/version/replica_index). Throws std::invalid_argument on an
  /// empty member list.
  [[nodiscard]] std::shared_ptr<const SharedDeviceBackend> attach(
      std::vector<hw::QNetDesc> members, const DeployConfig& config);

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const SharedDeviceConfig& config() const noexcept {
    return config_;
  }

  /// Engines ever attached (detached tenants still count — their
  /// accounting rows persist).
  [[nodiscard]] std::size_t tenant_count() const EXCLUDES(mutex_);

  /// Consistent accounting snapshot (see SharedDeviceSnapshot).
  [[nodiscard]] SharedDeviceSnapshot snapshot() const EXCLUDES(mutex_);

  /// The snapshot rendered as device + per-tenant tables, ready to print.
  [[nodiscard]] std::string stats_table(const std::string& title) const;

 private:
  friend class SharedDeviceBackend;

  struct Tenant;

  /// One engine sub-batch waiting for (or riding in) a device pass. Lives
  /// on the blocked execute() caller's stack; the device only keeps a
  /// pointer while the job is queued or executing, and never touches it
  /// again once `done` is set under the mutex.
  struct Job {
    Tenant* owner = nullptr;
    const tensor::Tensor* stacked = nullptr;  ///< borrowed from the caller
    std::size_t samples = 0;
    bool interactive = false;  ///< carried an interactive rider (ExecHints)
    BatchResult result;
    bool done = false;
    // Chunk accounting: a job can execute across several chunks, so its
    // exact attribution accumulates here until it retires.
    double exec_us = 0.0;       ///< accumulated modeled compute
    double extra_us = 0.0;      ///< reloads + pass overhead it carried
    double extra_dma_bytes = 0.0;  ///< weight bytes for reloads it carried
  };

  /// One attached engine: its plans, switch pricing, lanes, accounting.
  /// Heap-allocated and never destroyed before the device, so Tenant*
  /// stays valid across concurrent attach() reallocation of tenants_;
  /// everything but the accounting/lane fields is immutable after attach.
  /// When the tenant's backend is destroyed (undeploy/redeploy), `sim` —
  /// the heavy part: compiled plans and profilers — is released and
  /// the row freezes; churning redeploys on a long-lived PU must not
  /// accumulate dead models' working sets.
  struct Tenant {
    std::string label;
    std::string model;
    /// Interned model tag for trace events (stable; set at attach).
    const char* trace_model = nullptr;
    std::unique_ptr<SimulatedAcceleratorBackend> sim;  ///< null once detached
    std::size_t in_c = 0, in_h = 0, in_w = 0;
    double switch_us = 0.0;  ///< weight-reload penalty for this model
    /// One FIFO lane per priority class, interactive drained first —
    /// indexed by Priority (guarded by mutex_). The interactive lane is
    /// what the dispatcher re-checks between chunks of a preemptible pass.
    std::deque<Job*> lanes[kPriorityClasses];
    /// The engine's outstanding counts (guarded by mutex_), shared by its
    /// constructor through SharedDeviceBackend::share_outstanding; null
    /// before that and once released.
    std::shared_ptr<const OutstandingCounts> outstanding;
    // Accounting (guarded by mutex_).
    std::uint64_t sub_batches = 0;
    std::uint64_t samples = 0;
    double busy_us = 0.0;

    /// The engine's committed work, queued + executing, in modeled
    /// microseconds on this PU: committed_delay_us(total, sample_us, 0),
    /// the formula the engine prices its own backlog with. 0 without
    /// counts.
    [[nodiscard]] double pending_us() const;
  };

  /// One live device pass: jobs in execution order with a cursor; retired
  /// jobs fall off in front of the cursor, fill_pass_locked inserts behind
  /// it. Owned by the dispatch thread; mutated only under mutex_ between
  /// chunks.
  struct ActivePass {
    std::vector<Job*> jobs;
    std::size_t next_job = 0;     ///< first not-fully-executed job
    std::size_t next_sample = 0;  ///< executed samples within jobs[next_job]
    std::size_t planned_samples = 0;  ///< total samples of all jobs, ever
    std::size_t done_samples = 0;
    std::size_t in_c = 0, in_h = 0, in_w = 0;  ///< pass geometry (lead's)
    std::uint64_t seq = 0;     ///< pass sequence number, 1-based
    std::uint64_t chunks = 0;  ///< chunks executed so far
    std::size_t joined = 0;    ///< jobs admitted after the first chunk
    std::int64_t start_us = 0;
    bool interactive = false;  ///< formed by a preemption, for probes only
    bool overhead_paid = false;  ///< pass_overhead_us charged yet?
    /// Distinct model names seen (co-batch accounting; small by
    /// construction — a pass rarely mixes more than a few models).
    std::vector<std::string> models;
  };

  /// One planned chunk of an ActivePass: a contiguous same-tenant sample
  /// range starting at the pass cursor, plus the reload it pays entering
  /// it. `end_*` is the cursor after the chunk (end_sample > 0 means
  /// jobs[end_job] is split mid-sub-batch).
  struct Chunk {
    Tenant* tenant = nullptr;
    std::size_t end_job = 0;
    std::size_t end_sample = 0;
    std::size_t samples = 0;
    double switch_us = 0.0;    ///< reload paid entering this chunk
    double overhead_us = 0.0;  ///< pass overhead (first chunk only)
    /// Filled by execute_chunk: modeled cost and wall start time.
    double cost_us = 0.0;
    std::int64_t start_us = 0;
  };

  SharedDevice(DeviceSpec spec, SharedDeviceConfig config);

  /// The microsecond clock / sleep the dispatcher paces with — the
  /// config's test seams when set, the host monotonic clock otherwise.
  [[nodiscard]] std::int64_t now_device_us() const;
  void sleep_device_us(std::int64_t duration_us) const;

  /// Enqueues `job` into its tenant's lane for `job.interactive` and
  /// blocks until it retires (the execute() implementation of
  /// SharedDeviceBackend).
  void submit_and_wait(Job& job) EXCLUDES(mutex_);

  /// Called by ~SharedDeviceBackend: frees the tenant's plans and drops its
  /// outstanding counts (its engine has drained, so the lanes are empty)
  /// while keeping the accounting row readable in snapshots.
  void release_tenant(Tenant* tenant) EXCLUDES(mutex_);

  /// Aggregate pending work minus `tenant`'s own contribution.
  [[nodiscard]] double backlog_excluding_us(const Tenant* tenant) const
      EXCLUDES(mutex_);

  /// The dispatch thread's loop: {wait for work, start a pass} under
  /// mutex_, then run_pass_chunked, whose per-chunk cycle is {plan} under
  /// mutex_, execute/pace unlocked, {retire} under mutex_ — every locked
  /// phase is a REQUIRES-annotated helper, so the whole loop stays inside
  /// the static analysis (no opt-out).
  void dispatch_main() EXCLUDES(mutex_);

  /// Samples currently queued across all active tenant lanes.
  [[nodiscard]] std::size_t pending_samples_locked() const REQUIRES(mutex_);

  /// Any interactive sub-batch queued on an active tenant?
  [[nodiscard]] bool interactive_pending_locked() const REQUIRES(mutex_);

  /// Blocks until work is pending (or stop), then holds pass formation for
  /// the coalesce window so just-woken engine workers can refill the lanes
  /// (see SharedDeviceConfig::coalesce_window_us). On preemptible devices
  /// a pending interactive sub-batch cuts the window short.
  void wait_for_work_locked() REQUIRES(mutex_);

  /// Passes chunked to the granularity, with joins and preemption?
  [[nodiscard]] bool preemptible() const noexcept {
    return config_.preempt_granularity_us > 0.0;
  }

  /// Starts a new pass: the round-robin scan from the cursor picks the
  /// lead tenant, whose next sub-batch fixes the pass geometry, then
  /// fill_pass_locked coalesces the rest. With `interactive_only` only
  /// interactive lanes are drawn from (preemption passes serve probes
  /// exclusively). Returns an empty-jobs pass when no (matching) work is
  /// pending.
  [[nodiscard]] ActivePass start_pass_locked(bool interactive_only)
      REQUIRES(mutex_);

  /// The lane `tenant`'s next sub-batch for `pass` comes from: the
  /// interactive lane first, then the batch lane unless the pass serves
  /// probes only; null when neither has work.
  [[nodiscard]] std::deque<Job*>* next_lane_locked(Tenant& tenant,
                                                   const ActivePass& pass)
      REQUIRES(mutex_);

  /// Can `job` ride `pass`? Co-batching on, the pass's geometry, and room
  /// under max_pass_samples.
  [[nodiscard]] bool joinable_locked(const Job& job,
                                     const ActivePass& pass) const
      REQUIRES(mutex_);

  /// Admits joinable sub-batches into `pass`, sweep by sweep from the
  /// round-robin cursor, until a sweep admits none (placement: see file
  /// comment). Runs when a pass forms and, on preemptible devices, between
  /// chunks; a job admitted after the first chunk is a join.
  void fill_pass_locked(ActivePass& pass) REQUIRES(mutex_);

  /// Plans the next chunk: a same-tenant sample range from the pass cursor
  /// — the tenant's whole contiguous run, capped on preemptible devices at
  /// preempt_granularity_us of modeled compute (at least one sample) — the
  /// reload iff the tenant is not resident (updates resident_), and the
  /// pass overhead on the first chunk.
  [[nodiscard]] Chunk plan_chunk_locked(ActivePass& pass) REQUIRES(mutex_);

  /// Executes a planned chunk through the tenant's compiled plans
  /// (slicing sub-batches on sample boundaries when the chunk splits one),
  /// records the chunk trace span, and (when paced) holds it until its
  /// modeled completion. Touches no lane/accounting state — runs unlocked.
  void execute_chunk(ActivePass& pass, Chunk& chunk, hw::ExecScratch& scratch,
                     bool& thread_labeled) EXCLUDES(mutex_);

  /// Retires an executed chunk: advances the pass cursor, bumps device and
  /// chunk counters, attributes the chunk's reload/overhead to its lead
  /// job, and retires every job the cursor passed (exact accounting —
  /// see retire_job_locked).
  void retire_chunk_locked(ActivePass& pass, Chunk& chunk) REQUIRES(mutex_);

  /// Marks one fully-executed job done and attributes its exact cost:
  /// its own accumulated compute plus the reloads/overhead it carried, so
  /// per-tenant busy sums to device busy across preemption boundaries.
  void retire_job_locked(Job& job) REQUIRES(mutex_);

  /// Bumps pass-level counters once a pass fully retires and records its
  /// pu_pass span / cobatched_pass instant.
  void finish_pass_locked(ActivePass& pass) REQUIRES(mutex_);

  /// True when some pending interactive sub-batch is not joinable into
  /// `pass` (geometry mismatch, pass at capacity, or time slicing) — the
  /// suspend-this-pass trigger.
  [[nodiscard]] bool should_preempt_locked(const ActivePass& pass) const
      REQUIRES(mutex_);

  /// Runs one pass to completion: per chunk, {fill (preemptible devices),
  /// plan chunk} under mutex_, execute unlocked, {retire} under mutex_; on
  /// preemptible devices, suspends between chunks for interactive-only
  /// passes when should_preempt_locked fires. `depth` bounds the
  /// suspension nesting: interactive passes (depth 1) never suspend.
  void run_pass_chunked(ActivePass pass, hw::ExecScratch& scratch,
                        bool& thread_labeled, int depth) EXCLUDES(mutex_);

  DeviceSpec spec_;
  SharedDeviceConfig config_;

  mutable util::Mutex mutex_;
  util::CondVar work_ready_;    ///< dispatcher waits for jobs
  util::CondVar pass_retired_;  ///< execute() callers wait for done
  std::vector<std::unique_ptr<Tenant>> tenants_ GUARDED_BY(mutex_);
  /// Attached-and-not-released tenants — what the dispatcher and the
  /// backlog/admission paths iterate. Released tenants stay in tenants_
  /// (their rows and Tenant* stability outlive them) but leave this list,
  /// so redeploy churn cannot grow the per-submit scan without bound.
  std::vector<Tenant*> active_ GUARDED_BY(mutex_);
  /// active_.size(), written under mutex_, read without it by the
  /// one-tenant shortcut of backlog_excluding_us.
  std::atomic<std::size_t> active_count_{0};
  /// Round-robin cursor over active_.
  std::size_t next_tenant_ GUARDED_BY(mutex_) = 0;
  /// Tenant whose weights are resident in the PU's weight buffer; null
  /// before the first pass. Tenants share residency only with themselves —
  /// conservative for two replicas of one model, and a redeployed version
  /// legitimately reloads.
  const Tenant* resident_ GUARDED_BY(mutex_) = nullptr;
  bool stop_ GUARDED_BY(mutex_) = false;

  // Accounting.
  std::uint64_t passes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t cobatched_passes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t model_switches_ GUARDED_BY(mutex_) = 0;
  std::uint64_t chunks_ GUARDED_BY(mutex_) = 0;
  std::uint64_t preemptions_ GUARDED_BY(mutex_) = 0;
  std::uint64_t joined_jobs_ GUARDED_BY(mutex_) = 0;
  std::uint64_t joined_passes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t pass_seq_ GUARDED_BY(mutex_) = 0;
  double busy_us_ GUARDED_BY(mutex_) = 0.0;
  double switch_busy_us_ GUARDED_BY(mutex_) = 0.0;
  /// Started at construction, only ever read — needs no guard.
  util::Stopwatch window_;

  std::thread dispatcher_;
};

/// The per-tenant ExecutionBackend facade a SharedDevice hands each engine:
/// execute() forwards the prepared batch into the device queue and blocks
/// until the dispatch thread retires its sub-batch (paced to the modeled
/// device when SharedDeviceConfig.paced). Cost accessors report the
/// tenant's own per-sample cost on the shared PU; cross_tenant_backlog_us()
/// reports the other tenants' committed work, priced from their engines'
/// shared outstanding counts, so engine admission and ReplicaSet routing
/// price the device's aggregate load.
///
/// Thread-safety: as ExecutionBackend requires — all methods safe from any
/// number of engine worker / submit threads. Lifetime: holds the
/// SharedDevice alive; destroyed only after its engine drained, so no
/// execute() can be in flight.
class SharedDeviceBackend final : public ExecutionBackend {
 public:
  SharedDeviceBackend(std::shared_ptr<SharedDevice> device,
                      SharedDevice::Tenant* tenant);

  /// Releases the tenant's device-side plans (see
  /// SharedDevice::release_tenant). Runs only after the owning engine
  /// drained, so no execute() is in flight and the lanes are empty.
  ~SharedDeviceBackend() override;

  SharedDeviceBackend(const SharedDeviceBackend&) = delete;
  SharedDeviceBackend& operator=(const SharedDeviceBackend&) = delete;

  /// `hints.interactive` routes the sub-batch into the tenant's
  /// interactive lane, which preemptible passes re-check between chunks.
  [[nodiscard]] BatchResult execute(const tensor::Tensor& stacked,
                                    hw::ExecScratch& scratch,
                                    const ExecHints& hints) const override;
  [[nodiscard]] double sample_us() const noexcept override;
  [[nodiscard]] double batch_dma_bytes(std::size_t batch_size) const override;
  [[nodiscard]] std::size_t member_count() const noexcept override;
  [[nodiscard]] double cross_tenant_backlog_us() const noexcept override;
  /// This tenant's weight-reload penalty on the shared PU, microseconds
  /// (priced once at attach; the blocking term the deploy-time capacity
  /// analyzer and ReplicaSet::capacity_facts() build bounds from).
  [[nodiscard]] double switch_us() const noexcept {
    return tenant_->switch_us;
  }
  /// Keeps the engine's counts on the tenant until release_tenant.
  void share_outstanding(
      std::shared_ptr<const OutstandingCounts> counts) const override;
  /// This tenant's member profiles on the shared PU (empty after the
  /// tenant's plans were released — i.e. never while the owning engine
  /// is alive).
  [[nodiscard]] std::vector<hw::LayerProfile> layer_profiles() const override;

 private:
  std::shared_ptr<SharedDevice> device_;
  /// Stable pointer into device_->tenants_ (Tenants live as long as the
  /// device; immutable fields are read lock-free by the cost accessors).
  SharedDevice::Tenant* tenant_;
};

}  // namespace mfdfp::serve
