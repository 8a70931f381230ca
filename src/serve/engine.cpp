#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/timer_slack.hpp"

namespace mfdfp::serve {

using tensor::Shape;
using tensor::Tensor;

std::shared_ptr<const ExecutionBackend> InferenceEngine::simulated_backend(
    std::vector<hw::QNetDesc> members, const DeployConfig& config) {
  const DeployConfig resolved = resolve_config(config);
  return std::make_shared<SimulatedAcceleratorBackend>(
      std::move(members), resolved.accel, resolved.device, resolved.in_c,
      resolved.in_h, resolved.in_w, resolved.plan_cache);
}

DeployConfig InferenceEngine::resolve_config(DeployConfig config) {
  DeviceSpec& device = config.device;
  if (!device.valid()) {
    throw std::invalid_argument("InferenceEngine: device \"" + device.name +
                                "\" has speed_factor <= 0");
  }
  if (device.name.empty()) {
    device.name = "dev" + std::to_string(config.replica_index);
  }
  // Nonzero device fields override the engine defaults (per-device
  // provisioning: a fatter device may run more drain threads and admit
  // bigger batches).
  if (device.workers != 0) config.workers = device.workers;
  if (device.max_batch != 0) config.max_batch = device.max_batch;
  if (device.queue_capacity != 0) {
    config.queue_capacity = device.queue_capacity;
  }

  // Reject nonsensical configs with a typed code instead of silently
  // "fixing" them: a zero-worker engine never drains its queue, a
  // zero-capacity queue rejects every request at the door, and negative
  // time budgets would wrap the deadline arithmetic. Validated *after* the
  // device overrides so a bad override is caught too.
  const auto reject = [](const std::string& what) {
    throw DeployError(StatusCode::kInvalidConfig,
                      "InferenceEngine: invalid deploy config: " + what);
  };
  if (config.in_c == 0 || config.in_h == 0 || config.in_w == 0) {
    reject("input geometry has a zero dimension");
  }
  if (config.workers == 0) reject("zero workers");
  if (config.max_batch == 0) reject("zero max_batch");
  if (config.queue_capacity == 0) reject("zero-capacity queue");
  if (config.max_wait_us < 0) reject("negative max_wait_us");
  if (config.default_deadline_us < 0) reject("negative default_deadline_us");
  return config;
}

InferenceEngine::InferenceEngine(std::vector<hw::QNetDesc> members,
                                 DeployConfig config)
    : InferenceEngine(simulated_backend(std::move(members), config), config) {}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const ExecutionBackend> backend, DeployConfig config)
    : config_(resolve_config(std::move(config))),
      backend_(std::move(backend)),
      queue_(config_.queue_capacity, config_.priority_scheduling) {
  if (!backend_) {
    throw std::invalid_argument("InferenceEngine: null execution backend");
  }
  if (backend_->member_count() == 0) {
    throw std::invalid_argument("InferenceEngine: backend has no members");
  }
  // Hold a batch open only while a rider can still share its fixed cost.
  // Compared in double, so a fixed cost past the int64 range keeps
  // max_wait_us.
  const double fixed_us = std::ceil(backend_->batch_fixed_us());
  batch_window_us_ = fixed_us < static_cast<double>(config_.max_wait_us)
                         ? static_cast<std::int64_t>(fixed_us)
                         : config_.max_wait_us;
  backend_->share_outstanding(outstanding_);
  init_trace_identity();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void InferenceEngine::init_trace_identity() {
  obs::TraceRecorder& rec = obs::trace();
  const std::string model =
      config_.model_name.empty() ? std::string("model") : config_.model_name;
  trace_model_ = rec.intern(model);
  for (std::size_t lane = 0; lane < kPriorityClasses; ++lane) {
    const char* lane_name = priority_name(static_cast<Priority>(lane));
    trace_lane_[lane] = rec.intern(lane_name);
    trace_queue_counter_[lane] = rec.intern(model + "/" + config_.device.name +
                                            "/queue_depth/" + lane_name);
  }
}

InferenceEngine::~InferenceEngine() { stop(); }

std::future<Response> InferenceEngine::submit(Tensor sample,
                                              SubmitOptions options) {
  Request request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.input = std::move(sample);
  request.priority = options.priority;
  request.enqueue_us = util::Stopwatch::now_us();
  if (options.deadline_us < 0) {
    request.deadline_us =
        config_.default_deadline_us > 0
            ? saturating_add_us(request.enqueue_us,
                                config_.default_deadline_us)
            : 0;
  } else {
    request.deadline_us = options.deadline_us;
  }
  std::future<Response> future = request.promise.get_future();

  // Exact-dimension check: a permuted layout with the right element count
  // would be served as scrambled data, not rejected.
  const Shape& shape = request.input.shape();
  const std::size_t axis0 = shape.rank() == 4 ? 1 : 0;
  const bool shape_ok =
      (shape.rank() == 3 || (shape.rank() == 4 && shape.dim(0) == 1)) &&
      shape.dim(axis0) == config_.in_c &&
      shape.dim(axis0 + 1) == config_.in_h &&
      shape.dim(axis0 + 2) == config_.in_w;
  if (!shape_ok) {
    stats_.record_rejected();
    fail_request(request, StatusCode::kInvalidInput,
                 "bad input shape " + shape.to_string());
    return future;
  }
  // A NaN has no nearest code; refuse it here rather than serve the code 0
  // the encode maps it to. An int flag and no early exit, so the scan
  // vectorizes.
  int has_nan = 0;
  for (const float v : request.input.data()) has_nan |= std::isnan(v);
  if (has_nan != 0) {
    stats_.record_rejected();
    fail_request(request, StatusCode::kInvalidInput, "NaN in input sample");
    return future;
  }
  if (stopped_.load(std::memory_order_acquire)) {
    stats_.record_rejected();
    fail_request(request, StatusCode::kShuttingDown, "engine stopped");
    return future;
  }

  // A deadline that has already passed fails here — counting as timed_out,
  // not rejected — instead of occupying a queue slot until batch formation.
  if (request.deadline_us != 0 && request.enqueue_us >= request.deadline_us) {
    stats_.record_timeout();
    obs::trace().record_instant("expired_at_submit", "admission",
                                request.enqueue_us, request.id, nullptr, 0,
                                trace_model_);
    fail_request(request, StatusCode::kDeadlineExceeded,
                 "expired at submit");
    return future;
  }

  const std::size_t depth = queue_.size();

  // Admission control: refuse kBatch work whose estimated queue delay
  // (outstanding requests x the device's per-sample modeled cost, plus any
  // cross-tenant backlog on a shared device) already blows the deadline
  // budget. Interactive traffic is never shed, and deadline-less batch
  // traffic has an infinite budget.
  if (config_.admission_control && request.priority == Priority::kBatch &&
      request.deadline_us != 0) {
    const double est_delay_us = estimated_queue_delay_us();
    const double budget_us =
        static_cast<double>(request.deadline_us - request.enqueue_us);
    if (est_delay_us > budget_us) {
      stats_.record_shedded();
      obs::trace().record_instant("shed", "admission", request.enqueue_us,
                                  request.id, "est_delay_us",
                                  static_cast<std::int64_t>(est_delay_us),
                                  trace_model_);
      fail_request(request, StatusCode::kShedded,
                   "estimated queue delay exceeds deadline budget");
      return future;
    }
  }

  stats_.record_queue_depth(depth);
  const std::size_t lane = static_cast<std::size_t>(request.priority);
  // Counted before the push: a worker that pops the request must never see
  // the counter at zero while it holds live work.
  outstanding_->lanes[lane].fetch_add(1, std::memory_order_relaxed);
  if (!queue_.push(std::move(request))) {
    outstanding_->lanes[lane].fetch_sub(1, std::memory_order_relaxed);
    // push() left the request intact on failure, promise included.
    stats_.record_rejected();
    obs::trace().record_instant("reject_queue_full", "admission",
                                request.enqueue_us, request.id, nullptr, 0,
                                trace_model_);
    if (queue_.closed()) {
      fail_request(request, StatusCode::kShuttingDown, "engine stopped");
    } else {
      fail_request(request, StatusCode::kQueueFull, "queue at capacity");
    }
    return future;
  }
  // Admitted: sample the lane's queue-depth counter track. size(lane) takes
  // the queue lock, so only pay it while tracing is on.
  obs::TraceRecorder& rec = obs::trace();
  if (rec.enabled()) {
    rec.record_counter(
        trace_queue_counter_[lane], util::Stopwatch::now_us(),
        static_cast<std::int64_t>(
            queue_.size(static_cast<Priority>(lane))));
  }
  return future;
}

void InferenceEngine::stop() {
  stopped_.store(true, std::memory_order_release);
  queue_.close();
  std::call_once(joined_, [this] {
    for (std::thread& worker : workers_) worker.join();
  });
}

void InferenceEngine::worker_main(std::size_t worker_index) {
  // pop_batch closes a lone request's batch with a wait to
  // enqueue_us + batch_window_us_; keep the wake-up from overshooting it.
  util::use_fine_timer_slack();
  hw::ExecScratch scratch;
  std::vector<Request> batch;
  bool thread_labeled = false;
  while (queue_.pop_batch(batch, config_.max_batch, batch_window_us_)) {
    obs::TraceRecorder& rec = obs::trace();
    if (!thread_labeled && rec.enabled()) {
      // Lazy: label this worker's trace track the first time tracing is on.
      rec.set_thread_label(rec.intern(
          std::string(trace_model_) + "/" + config_.device.name + "/w" +
          std::to_string(worker_index)));
      thread_labeled = true;
    }
    // Fail requests that expired while queued instead of spending device
    // time on them; the live ones keep their order.
    const std::int64_t now = util::Stopwatch::now_us();
    const auto live_end = std::stable_partition(
        batch.begin(), batch.end(), [now](const Request& request) {
          return request.deadline_us == 0 || now <= request.deadline_us;
        });
    for (auto it = live_end; it != batch.end(); ++it) {
      stats_.record_timeout();
      rec.record_instant("expired_in_queue", "admission", now, it->id,
                         nullptr, 0, trace_model_);
      fail_request(*it, StatusCode::kDeadlineExceeded, "expired while queued");
      outstanding_->lanes[static_cast<std::size_t>(it->priority)].fetch_sub(
          1, std::memory_order_relaxed);
    }
    batch.erase(live_end, batch.end());
    if (!batch.empty()) execute_batch(batch, scratch);
  }
}

void InferenceEngine::execute_batch(std::vector<Request>& batch,
                                    hw::ExecScratch& scratch) {
  const std::int64_t formed_us = util::Stopwatch::now_us();
  const std::size_t batch_size = batch.size();

  // Stack samples along the outer axis (the executor's native layout).
  Tensor stacked{
      Shape{batch_size, config_.in_c, config_.in_h, config_.in_w}};
  const std::size_t sample_size =
      config_.in_c * config_.in_h * config_.in_w;
  for (std::size_t i = 0; i < batch_size; ++i) {
    std::memcpy(stacked.data().data() + i * sample_size,
                batch[i].input.data().data(), sample_size * sizeof(float));
  }

  // The backend owns execution and costing: logits plus the device-scaled
  // modeled latency / DMA of this batch. The hint tells a multiplexing
  // backend whether any rider is interactive (probes preempt / skip
  // coalescing on a preemptible shared PU); it never changes the logits.
  ExecHints hints;
  for (const Request& request : batch) {
    if (request.priority == Priority::kInteractive) {
      hints.interactive = true;
      break;
    }
  }
  BatchResult result = backend_->execute(stacked, scratch, hints);
  const Tensor& logits = result.logits;
  const double sim_us = result.sim_accel_us;
  const double sim_dma = result.sim_dma_bytes;
  const std::int64_t done_us = util::Stopwatch::now_us();

  obs::TraceRecorder& rec = obs::trace();
  if (rec.enabled()) {
    // Each rider's queue wait as its own span (categorized by lane), then
    // the batch's device pass on this worker's track (on a paced shared PU
    // it includes the dispatcher's pacing hold).
    for (const Request& request : batch) {
      rec.record_span("queue_wait",
                      trace_lane_[static_cast<std::size_t>(request.priority)],
                      request.enqueue_us, formed_us - request.enqueue_us,
                      request.id, nullptr, 0, trace_model_);
    }
    rec.record_span("device_pass", "serve", formed_us, done_us - formed_us,
                    batch.front().id, "samples",
                    static_cast<std::int64_t>(batch_size), trace_model_);
  }
  const std::size_t classes = logits.shape().dim(1);

  // Record the batch before fulfilling any promise: a client that has seen
  // every future resolve must also see the batch in a stats snapshot.
  stats_.record_batch(batch_size, sim_us, sim_dma);
  for (std::size_t i = 0; i < batch_size; ++i) {
    Response response;
    response.status = StatusCode::kOk;
    response.logits = tensor::slice_outer(logits, i, i + 1);
    response.predicted_class = static_cast<int>(
        logits.argmax(i * classes, (i + 1) * classes) - i * classes);
    response.model = config_.model_name;
    response.model_version = config_.model_version;
    response.replica = config_.replica_index;
    response.device = config_.device.name;
    response.priority = batch[i].priority;
    response.queue_wait_us = formed_us - batch[i].enqueue_us;
    response.service_us = done_us - formed_us;
    response.e2e_us = done_us - batch[i].enqueue_us;
    response.batch_size = batch_size;
    response.sim_accel_us = sim_us;
    response.sim_dma_bytes = sim_dma / static_cast<double>(batch_size);
    stats_.record_response(response.e2e_us, response.queue_wait_us,
                           batch[i].priority);
    batch[i].promise.set_value(std::move(response));
    outstanding_->lanes[static_cast<std::size_t>(batch[i].priority)]
        .fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace mfdfp::serve
