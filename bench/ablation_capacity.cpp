// Capacity-analyzer ablation: the deploy-time schedulability analyzer
// (src/analysis/capacity.hpp) versus the live system it models, on the
// shared-PU interference workload of ablation_shared_pu.
//
// Three phases:
//  1. soundness — a feasible two-tenant placement (interactive probe model
//     + deadline-less flood neighbour, both declaring TrafficEnvelopes)
//     deploys through the analyzer gate; the bench then drives the exact
//     adversarial workload the analyzer assumed (standing flood + probe
//     bursts) and the measured interactive p99 must stay at or under the
//     analyzer's proven worst-case bound. A measured tail above the static
//     bound means the proof is unsound — hard failure;
//  2. typed rejection — the same placement redeclared with a deadline below
//     the provable bound must be refused at deploy() as
//     DeployError{kInfeasibleSlo}, before a single request is served;
//  3. warn-only honesty — the infeasible envelope redeployed with
//     warn_only drives the same workload, and the measured p99 must
//     actually violate the declared deadline: the analyzer rejected a
//     placement that really does miss its SLO, not a conservative phantom.
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_capacity.json);
// scripts/run_bench.sh folds it into BENCH_serve.json next to the git SHA.
// Exits nonzero when any phase fails its acceptance check. MFDFP_QUICK=1
// shrinks the request counts.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "analysis/capacity.hpp"
#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "util/latency_histogram.hpp"
#include "util/table.hpp"

namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

// Constants mirror ablation_shared_pu (and bench/envelopes/capacity.envelope)
// so the analyzer's 74700us bound derivation in docs/static-analysis.md is
// the same number this bench enforces.
constexpr double kTargetSampleUs = 400.0;
constexpr double kSwitchUs = 1000.0;
constexpr std::size_t kMaxPassSamples = 32;
constexpr std::size_t kEngineMaxBatch = 4;
constexpr std::size_t kBurst = 16;
constexpr std::size_t kBacklog = 64;
/// Feasible deadline: above the 74700us provable bound.
constexpr double kFeasibleDeadlineUs = 80000.0;
/// Infeasible deadline: far below even the single-tenant bound.
constexpr double kInfeasibleDeadlineUs = 10000.0;

serve::SharedDeviceConfig pu_config() {
  serve::SharedDeviceConfig config;
  config.max_pass_samples = kMaxPassSamples;
  config.cobatch = true;
  config.paced = true;
  config.model_switch_us = kSwitchUs;
  return config;
}

serve::DeployConfig tenant_config(
    const std::shared_ptr<serve::SharedDevice>& pu,
    const hw::AcceleratorConfig& accel) {
  serve::DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 4;
  config.max_batch = kEngineMaxBatch;
  config.max_wait_us = 200;
  config.queue_capacity = 8192;
  config.placement = {serve::DeviceSpec::on(pu)};
  config.accel = accel;
  return config;
}

analysis::TrafficEnvelope probe_envelope(double deadline_us,
                                         bool warn_only = false) {
  analysis::TrafficEnvelope envelope;
  envelope.arrival_rps = 40.0;
  envelope.interactive_fraction = 1.0;
  envelope.interactive_burst = kBurst;
  envelope.interactive_deadline_us = deadline_us;
  envelope.warn_only = warn_only;
  return envelope;
}

analysis::TrafficEnvelope flood_envelope(bool warn_only = false) {
  analysis::TrafficEnvelope envelope;
  envelope.arrival_rps = 100.0;
  envelope.interactive_fraction = 0.0;
  envelope.warn_only = warn_only;
  return envelope;
}

/// Standing kBatch flood on "flood" + bursts of interactive probes to
/// "probe", the adversarial workload the analyzer's bound assumes. Returns
/// the probes' p99 e2e latency, microseconds.
std::int64_t drive_interference(serve::ModelServer& server,
                                const Tensor& images) {
  const std::size_t rounds = bench::quick_mode() ? 4 : 8;
  const auto flood_set = server.replica_set("flood");

  const std::size_t pool = images.shape().n();
  std::size_t next_image = 0;
  auto sample = [&] {
    const std::size_t i = next_image++ % pool;
    return tensor::slice_outer(images, i, i + 1);
  };

  serve::SubmitOptions batch_options;
  batch_options.priority = serve::Priority::kBatch;
  batch_options.deadline_us = 0;
  serve::SubmitOptions interactive_options;
  interactive_options.priority = serve::Priority::kInteractive;
  interactive_options.deadline_us = 0;

  std::vector<std::future<serve::Response>> backlog, probes;
  util::LatencyHistogram probe_e2e;
  for (std::size_t round = 0; round < rounds; ++round) {
    while (flood_set->queue_depth() < kBacklog) {
      backlog.push_back(server.submit("flood", sample(), batch_options));
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      probes.push_back(server.submit("probe", sample(), interactive_options));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& probe : probes) {
    const serve::Response response = probe.get();
    if (!serve::ok(response.status)) std::abort();
    probe_e2e.record(response.e2e_us);
  }
  server.shutdown();
  for (auto& future : backlog) {
    if (!serve::ok(future.get().status)) std::abort();
  }
  return probe_e2e.p99();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_capacity.json";

  const hw::QNetDesc qnet_a = bench::tiny_mlp_qnet(95);
  const hw::QNetDesc qnet_b = bench::tiny_mlp_qnet(96);
  util::Rng rng{97};
  Tensor images{Shape{32, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  // Scale the modeled clock so one sample costs ~kTargetSampleUs on the PU.
  hw::AcceleratorConfig accel;
  {
    serve::ModelServer probe;
    serve::DeployConfig config;
    config.in_c = 3;
    config.in_h = config.in_w = 16;
    probe.deploy("probe", {qnet_a}, config);
    const double native_us = probe.engine("probe")->simulated_sample_us();
    probe.shutdown();
    accel.clock_hz *= native_us / kTargetSampleUs;
  }

  // ---- Phase 1: analyzer bound is sound against the measured tail ---------
  double analyzer_bound_us = 0.0;
  std::int64_t feasible_p99 = 0;
  {
    auto pu = serve::SharedDevice::create({}, pu_config());
    serve::ModelServer server;
    serve::DeployConfig probe_cfg = tenant_config(pu, accel);
    probe_cfg.envelope = probe_envelope(kFeasibleDeadlineUs);
    server.deploy("probe", {qnet_a}, probe_cfg);
    serve::DeployConfig flood_cfg = tenant_config(pu, accel);
    flood_cfg.envelope = flood_envelope();
    server.deploy("flood", {qnet_b}, flood_cfg);

    const analysis::CapacityReport report = server.capacity_report();
    std::printf("%s%s\n",
                report.table("deploy-time schedulability bounds").c_str(),
                report.summary().c_str());
    for (const analysis::Finding& finding : report.findings) {
      if (finding.proof == analysis::ProofKind::kInteractiveLatency &&
          finding.model == "probe") {
        analyzer_bound_us = finding.worst_case_us;
      }
    }
    feasible_p99 = drive_interference(server, images);
  }
  std::printf("phase 1: measured interactive p99 %lld us vs analyzer bound "
              "%.0f us\n",
              static_cast<long long>(feasible_p99), analyzer_bound_us);

  // ---- Phase 2: infeasible envelope is refused, typed ---------------------
  bool typed_rejection = false;
  {
    auto pu = serve::SharedDevice::create({}, pu_config());
    serve::ModelServer server;
    serve::DeployConfig probe_cfg = tenant_config(pu, accel);
    probe_cfg.envelope = probe_envelope(kInfeasibleDeadlineUs);
    try {
      server.deploy("probe", {qnet_a}, probe_cfg);
    } catch (const serve::DeployError& error) {
      typed_rejection =
          error.code() == serve::StatusCode::kInfeasibleSlo &&
          server.model_count() == 0;
    }
  }
  std::printf("phase 2: infeasible deadline (%.0f us) rejected as "
              "kInfeasibleSlo before serving: %s\n",
              kInfeasibleDeadlineUs, typed_rejection ? "yes" : "NO");

  // ---- Phase 3: warn-only deploys, and really does miss the SLO -----------
  std::int64_t warn_only_p99 = 0;
  {
    auto pu = serve::SharedDevice::create({}, pu_config());
    serve::ModelServer server;
    serve::DeployConfig probe_cfg = tenant_config(pu, accel);
    probe_cfg.envelope = probe_envelope(kInfeasibleDeadlineUs,
                                        /*warn_only=*/true);
    server.deploy("probe", {qnet_a}, probe_cfg);
    serve::DeployConfig flood_cfg = tenant_config(pu, accel);
    flood_cfg.envelope = flood_envelope(/*warn_only=*/true);
    server.deploy("flood", {qnet_b}, flood_cfg);
    warn_only_p99 = drive_interference(server, images);
  }
  std::printf("phase 3: warn-only deployment measured p99 %lld us against "
              "its declared %.0f us deadline\n",
              static_cast<long long>(warn_only_p99), kInfeasibleDeadlineUs);

  // ---- Report + acceptance ------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ablation_capacity\",\n"
       << "  \"paced_sample_us\": " << kTargetSampleUs << ",\n"
       << "  \"model_switch_us\": " << kSwitchUs << ",\n"
       << "  \"analyzer_bound_us\": " << analyzer_bound_us << ",\n"
       << "  \"feasible_deadline_us\": " << kFeasibleDeadlineUs << ",\n"
       << "  \"feasible_p99_us\": " << feasible_p99 << ",\n"
       << "  \"infeasible_deadline_us\": " << kInfeasibleDeadlineUs << ",\n"
       << "  \"typed_rejection\": " << (typed_rejection ? "true" : "false")
       << ",\n"
       << "  \"warn_only_p99_us\": " << warn_only_p99 << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (analyzer_bound_us <= 0.0) {
    std::printf("FAIL: analyzer emitted no interactive bound for the "
                "feasible placement\n");
    return 1;
  }
  if (static_cast<double>(feasible_p99) > analyzer_bound_us) {
    std::printf("FAIL: measured p99 %lld us exceeds the analyzer's proven "
                "bound %.0f us — the static proof is unsound\n",
                static_cast<long long>(feasible_p99), analyzer_bound_us);
    return 1;
  }
  if (!typed_rejection) {
    std::printf("FAIL: infeasible envelope was not rejected as "
                "DeployError{kInfeasibleSlo}\n");
    return 1;
  }
  if (static_cast<double>(warn_only_p99) <= kInfeasibleDeadlineUs) {
    std::printf("FAIL: warn-only deployment met the %.0f us deadline "
                "(p99 %lld us) — the analyzer rejected a feasible config\n",
                kInfeasibleDeadlineUs,
                static_cast<long long>(warn_only_p99));
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
