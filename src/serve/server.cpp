#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/analyzer.hpp"
#include "analysis/capacity.hpp"
#include "obs/metrics.hpp"
#include "serve/shared_device.hpp"
#include "util/logging.hpp"

namespace mfdfp::serve {

ModelHandle ModelServer::deploy(const std::string& name,
                                std::vector<hw::QNetDesc> members,
                                DeployConfig config) {
  util::MutexLock lifecycle(lifecycle_mutex_);
  if (shutdown_.load(std::memory_order_acquire)) {
    throw std::logic_error("ModelServer: deploy after shutdown");
  }
  if (name.empty()) {
    throw std::invalid_argument("ModelServer: empty model name");
  }
  // Reserved before the set is built, so a refused deploy burns its
  // version and versions stay monotonic across rejections.
  const std::uint32_t version = ++last_version_[name];

  // Facts of every *other* deployed model (no deploy/undeploy can
  // interleave under the lifecycle lock): a candidate sharing a PU with
  // them must be proven against their blocking and vice versa. A same-name
  // entry is excluded — the candidate supersedes it, so proving the new
  // placement against the version it replaces would be analyzing a world
  // that never serves.
  std::vector<analysis::ModelFacts> facts;
  for (const Deployment& deployment : deployed()) {
    if (deployment.handle.name != name) {
      facts.push_back(deployment.replicas->capacity_facts());
    }
  }

  config.model_name = name;
  config.model_version = version;
  // Server-wide plan sharing: unless the caller brought their own cache,
  // every replica/tenant of this deployment — and any other deployment of
  // identical content — compiles once per (content, geometry).
  if (config.plan_cache == nullptr) config.plan_cache = plan_cache_;
  // Built and validated outside entries_mutex_: on redeploy the old set
  // keeps serving while every replacement replica constructs (plan
  // compilation, worker spawn), and a refusal below unwinds the candidate
  // (its workers drain, its shared-PU tenants release) as if this deploy
  // never happened.
  std::shared_ptr<ReplicaSet> replicas;
  try {
    replicas =
        std::make_shared<ReplicaSet>(std::move(members), std::move(config));
  } catch (const analysis::PlanRejectedError& error) {
    // Surface analyzer rejections (thrown inside plan compilation, deep in
    // backend construction) as the typed deploy-time status.
    throw DeployError(StatusCode::kUnsafePlan, error.what());
  }
  facts.push_back(replicas->capacity_facts());
  const analysis::CapacityReport report = analysis::analyze_capacity(facts);
  if (!report.feasible()) {
    if (!replicas->config().envelope.warn_only) {
      throw DeployError(StatusCode::kInfeasibleSlo, report.summary());
    }
    util::log_warn("deploy(" + name + "): " + report.summary());
  }

  std::shared_ptr<ReplicaSet> replaced;
  {
    util::MutexLock lock(entries_mutex_);
    Entry& entry = entries_[name];
    replaced = std::exchange(entry.replicas, std::move(replicas));
    entry.version = version;
  }
  if (replaced) replaced->stop();  // drain the old version's in-flight work
  return ModelHandle{name, version};
}

bool ModelServer::undeploy(const std::string& name) {
  // Same lock as deploy()/shutdown(): an undeploy cannot interleave with a
  // concurrent deploy or shutdown of the same name — it observes either the
  // world before the other operation or the world after it, never a
  // half-swapped entry.
  util::MutexLock lifecycle(lifecycle_mutex_);
  std::shared_ptr<ReplicaSet> removed;
  {
    util::MutexLock lock(entries_mutex_);
    auto node = entries_.extract(name);
    if (node.empty()) return false;
    removed = std::move(node.mapped().replicas);
  }
  removed->stop();  // drain: every queued request resolves before we return
  return true;
}

std::future<Response> ModelServer::submit(const std::string& model,
                                          tensor::Tensor sample,
                                          SubmitOptions options) {
  // The shared_ptr pins the set (and so its engines) for the whole submit
  // path: a concurrent undeploy/shutdown drains, it cannot free under us.
  const std::shared_ptr<ReplicaSet> replicas = replica_set(model);
  if (replicas) return replicas->submit(std::move(sample), options);
  // entries_mutex_ orders this miss after a concurrent shutdown's clear,
  // and shutdown() stores its flag before clearing — so if the flag reads
  // false here, the model genuinely was not deployed.
  if (shutdown_.load(std::memory_order_acquire)) {
    return ready_failure(StatusCode::kShuttingDown, "server shut down",
                         options.priority);
  }
  not_found_.fetch_add(1, std::memory_order_relaxed);
  return ready_failure(StatusCode::kModelNotFound,
                       "no model deployed as \"" + model + "\"",
                       options.priority);
}

void ModelServer::shutdown() {
  util::MutexLock lifecycle(lifecycle_mutex_);
  // Flag first, clear second: a submit whose lookup misses because the
  // clear won is ordered (entries_mutex_) after the clear, and therefore
  // after this store — it reads the flag as true and reports kShuttingDown.
  shutdown_.store(true, std::memory_order_release);
  std::unordered_map<std::string, Entry> removed;
  {
    util::MutexLock lock(entries_mutex_);
    removed.swap(entries_);
  }
  for (auto& [name, entry] : removed) entry.replicas->stop();
}

std::vector<ModelServer::Deployment> ModelServer::deployed() const {
  util::MutexLock lock(entries_mutex_);
  std::vector<Deployment> deployments;
  deployments.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    deployments.push_back(
        Deployment{ModelHandle{name, entry.version}, entry.replicas});
  }
  return deployments;
}

std::vector<ModelHandle> ModelServer::models() const {
  std::vector<ModelHandle> handles;
  for (Deployment& deployment : deployed()) {
    handles.push_back(std::move(deployment.handle));
  }
  return handles;
}

std::size_t ModelServer::model_count() const {
  util::MutexLock lock(entries_mutex_);
  return entries_.size();
}

std::shared_ptr<ReplicaSet> ModelServer::replica_set(
    const std::string& model) const {
  util::MutexLock lock(entries_mutex_);
  auto it = entries_.find(model);
  return it == entries_.end() ? nullptr : it->second.replicas;
}

analysis::CapacityReport ModelServer::capacity_report() const {
  std::vector<analysis::ModelFacts> facts;
  for (const Deployment& deployment : deployed()) {
    facts.push_back(deployment.replicas->capacity_facts());
  }
  return analysis::analyze_capacity(facts);
}

StatsSnapshot ModelServer::stats(const std::string& model) const {
  const std::shared_ptr<ReplicaSet> set = replica_set(model);
  return set ? set->aggregated_snapshot() : StatsSnapshot{};
}

std::string ModelServer::stats_table(const std::string& model) const {
  const std::shared_ptr<ReplicaSet> set = replica_set(model);
  return set ? set->stats_table(model) : std::string{};
}

std::string ModelServer::export_metrics() const {
  using obs::MetricLabels;
  using obs::MetricType;
  obs::MetricsRegistry registry;

  auto completed = registry.family("mfdfp_requests_completed_total",
                                   "Requests completed OK", MetricType::kCounter);
  auto timed_out = registry.family("mfdfp_requests_timed_out_total",
                                   "Requests that missed their deadline",
                                   MetricType::kCounter);
  auto rejected = registry.family(
      "mfdfp_requests_rejected_total",
      "Requests refused at submit (bad input, queue full, shutdown)",
      MetricType::kCounter);
  auto shedded = registry.family(
      "mfdfp_requests_shedded_total",
      "kBatch requests shed by admission control or the batch quota",
      MetricType::kCounter);
  auto shed_ratio = registry.family(
      "mfdfp_shed_ratio", "Shedded over all resolved requests, this window",
      MetricType::kGauge);
  auto throughput = registry.family("mfdfp_throughput_rps",
                                    "Completed requests per second",
                                    MetricType::kGauge);
  auto batches = registry.family("mfdfp_batches_total", "Executed batches",
                                 MetricType::kCounter);
  auto mean_batch = registry.family("mfdfp_mean_batch_size",
                                    "Mean executed batch size",
                                    MetricType::kGauge);
  auto e2e = registry.family(
      "mfdfp_e2e_latency_us",
      "End-to-end request latency, microseconds (wall clock)",
      MetricType::kSummary);
  auto queue_wait = registry.family("mfdfp_queue_wait_us",
                                    "Queue wait before batch formation, "
                                    "microseconds",
                                    MetricType::kSummary);
  auto queue_depth = registry.family(
      "mfdfp_queue_depth", "Requests queued right now, per priority lane",
      MetricType::kGauge);
  auto outstanding = registry.family(
      "mfdfp_outstanding_requests",
      "Requests accepted but unresolved (queued + executing), per lane",
      MetricType::kGauge);
  auto dma_bytes = registry.family("mfdfp_sim_dma_bytes_total",
                                   "Modeled DMA traffic, bytes",
                                   MetricType::kCounter);
  auto device_util = registry.family(
      "mfdfp_device_utilization",
      "Modeled accelerator busy fraction per device row",
      MetricType::kGauge);
  auto device_busy = registry.family("mfdfp_device_busy_us_total",
                                     "Modeled accelerator busy time per "
                                     "device row, microseconds",
                                     MetricType::kCounter);
  auto device_completed = registry.family(
      "mfdfp_device_completed_total",
      "Requests served per device row", MetricType::kCounter);
  auto pu_passes = registry.family("mfdfp_pu_passes_total",
                                   "Shared-PU device passes executed",
                                   MetricType::kCounter);
  auto pu_cobatched = registry.family(
      "mfdfp_pu_cobatched_passes_total",
      "Shared-PU passes that mixed two or more models",
      MetricType::kCounter);
  auto pu_cobatch_ratio = registry.family(
      "mfdfp_pu_cobatch_ratio", "Co-batched over all shared-PU passes",
      MetricType::kGauge);
  auto pu_switches = registry.family("mfdfp_pu_model_switches_total",
                                     "Shared-PU weight reloads paid",
                                     MetricType::kCounter);
  auto pu_busy = registry.family("mfdfp_pu_busy_us_total",
                                 "Shared-PU modeled busy time, microseconds",
                                 MetricType::kCounter);
  auto pu_util = registry.family("mfdfp_pu_utilization",
                                 "Shared-PU busy over wall fraction",
                                 MetricType::kGauge);

  // One shared PU may sit behind several models; emit its series once.
  std::vector<const SharedDevice*> seen_pus;

  for (const Deployment& deployment : deployed()) {
    const ReplicaSet& set = *deployment.replicas;
    const StatsSnapshot s = set.aggregated_snapshot();
    const MetricLabels model{{"model", deployment.handle.name}};

    completed.add(model, static_cast<double>(s.completed));
    timed_out.add(model, static_cast<double>(s.timed_out));
    rejected.add(model, static_cast<double>(s.rejected));
    shedded.add(model, static_cast<double>(s.shedded));
    const std::uint64_t resolved =
        s.completed + s.timed_out + s.rejected + s.shedded;
    shed_ratio.add(model, resolved == 0
                              ? 0.0
                              : static_cast<double>(s.shedded) /
                                    static_cast<double>(resolved));
    throughput.add(model, s.throughput_rps);
    batches.add(model, static_cast<double>(s.batches));
    mean_batch.add(model, s.mean_batch_size);
    dma_bytes.add(model, s.sim_dma_bytes);

    e2e.add_quantile(model, 0.5, static_cast<double>(s.e2e_p50_us))
        .add_quantile(model, 0.95, static_cast<double>(s.e2e_p95_us))
        .add_quantile(model, 0.99, static_cast<double>(s.e2e_p99_us))
        .add_summary_totals(model, s.completed,
                            s.e2e_mean_us * static_cast<double>(s.completed));
    queue_wait
        .add_quantile(model, 0.5, static_cast<double>(s.queue_p50_us))
        .add_quantile(model, 0.99, static_cast<double>(s.queue_p99_us));

    for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
      const Priority lane = static_cast<Priority>(cls);
      MetricLabels labels = model;
      labels.emplace_back("lane", priority_name(lane));
      queue_depth.add(labels, static_cast<double>(s.queue_depth_now[cls]));
      outstanding.add(std::move(labels),
                      static_cast<double>(s.outstanding_now[cls]));
    }

    for (const DeviceUtilizationRow& row : s.devices) {
      MetricLabels labels = model;
      labels.emplace_back("device", row.device);
      device_util.add(labels, row.sim_accel_utilization);
      device_busy.add(labels, row.sim_accel_busy_us);
      device_completed.add(std::move(labels),
                           static_cast<double>(row.completed));
    }

    for (std::size_t index = 0; index < set.replica_count(); ++index) {
      const std::shared_ptr<SharedDevice>& pu = set.device(index).shared;
      if (pu == nullptr ||
          std::find(seen_pus.begin(), seen_pus.end(), pu.get()) !=
              seen_pus.end()) {
        continue;
      }
      seen_pus.push_back(pu.get());
      const SharedDeviceSnapshot d = pu->snapshot();
      const MetricLabels labels{{"device", d.device}};
      pu_passes.add(labels, static_cast<double>(d.passes));
      pu_cobatched.add(labels, static_cast<double>(d.cobatched_passes));
      pu_cobatch_ratio.add(labels,
                           d.passes == 0
                               ? 0.0
                               : static_cast<double>(d.cobatched_passes) /
                                     static_cast<double>(d.passes));
      pu_switches.add(labels, static_cast<double>(d.model_switches));
      pu_busy.add(labels, d.busy_us);
      pu_util.add(labels, d.utilization);
    }
  }
  return registry.render();
}

}  // namespace mfdfp::serve
