// Replica-sharding ablation: one model behind 1/2/4 paced engine replicas.
//
// Three phases:
//  1. correctness — a 4-replica deployment must return logits bit-identical
//     to per-sample AcceleratorExecutor::run(), whichever replica serves
//     each request;
//  2. throughput scaling — the same closed-loop kBatch workload runs against
//     1, 2, and 4 replicas, each on its own paced one-tenant SharedDevice
//     (the PU's dispatcher holds each batch until the cycle model says the
//     accelerator would finish it, so wall-clock throughput tracks the
//     modeled hardware, not the host core count); completion must speed up
//     >= 1.7x at 2 replicas and >= 3.0x at 4 — near-linear, since N
//     replicas are N simulated accelerator instances draining
//     independently;
//  3. overload tail — under a standing kBatch backlog, bursts of
//     kInteractive probes must see a strictly better p99 on 4 replicas than
//     on a single engine: a burst spreads across replicas instead of
//     serializing behind one paced batch pipeline.
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_replicas.json);
// scripts/run_bench.sh folds it into BENCH_serve.json next to the git SHA.
// Exits nonzero when any phase fails its acceptance check. MFDFP_QUICK=1
// shrinks the request counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "util/latency_histogram.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

/// Per-sample simulated cost the pacing should impose, microseconds. Large
/// enough that pacing sleeps dominate the host-side MLP compute (a few us
/// per sample), so measured scaling reflects the modeled accelerators.
constexpr double kTargetSampleUs = 400.0;

/// `replicas` replicas, one drain thread each. With `paced` (the
/// measured phases) every replica runs on its own paced one-tenant PU;
/// without it on a plain unpaced dedicated device (correctness only).
serve::DeployConfig paced_config(std::size_t replicas,
                                 const hw::AcceleratorConfig& accel,
                                 bool paced = true) {
  serve::DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 1;  // one drain thread per simulated accelerator
  config.max_batch = 8;
  config.max_wait_us = 200;
  config.queue_capacity = 8192;
  for (std::size_t i = 0; i < replicas; ++i) {
    config.placement.push_back(
        paced ? serve::DeviceSpec::on(serve::SharedDevice::create(
                    {.name = "npu" + std::to_string(i)},
                    {.coalesce_window_us = 0, .paced = true}))
              : config.device);
  }
  config.accel = accel;
  return config;
}

/// Closed-loop kBatch workload: preload `requests` samples, wait for all.
/// Returns wall seconds from first submit to last completion.
double run_throughput(const hw::QNetDesc& qnet,
                      const hw::AcceleratorConfig& accel,
                      const Tensor& images, std::size_t replicas,
                      std::size_t requests) {
  serve::ModelServer server;
  server.deploy("m", {qnet}, paced_config(replicas, accel));

  serve::SubmitOptions options;
  options.priority = serve::Priority::kBatch;
  options.deadline_us = 0;

  util::Stopwatch wall;
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t img = i % images.shape().n();
    futures.push_back(server.submit(
        "m", tensor::slice_outer(images, img, img + 1), options));
  }
  for (auto& future : futures) {
    if (!serve::ok(future.get().status)) std::abort();
  }
  const double seconds = wall.seconds();
  server.shutdown();
  return seconds;
}

/// Standing kBatch backlog + bursts of interactive probes; returns the
/// probes' p99 e2e latency, microseconds.
std::int64_t run_overload_tail(const hw::QNetDesc& qnet,
                               const hw::AcceleratorConfig& accel,
                               const Tensor& images,
                               std::size_t replicas) {
  const std::size_t rounds = bench::quick_mode() ? 4 : 8;
  constexpr std::size_t kBurst = 16;
  constexpr std::size_t kBacklog = 96;

  serve::ModelServer server;
  server.deploy("m", {qnet}, paced_config(replicas, accel));
  const auto set = server.replica_set("m");

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
    // Keep every replica saturated with paced batch work at probe time.
    while (set->queue_depth() < kBacklog) {
      backlog.push_back(server.submit("m", sample(), batch_options));
    }
    for (std::size_t i = 0; i < kBurst; ++i) {
      probes.push_back(server.submit("m", sample(), interactive_options));
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
  const char* json_path = argc > 1 ? argv[1] : "BENCH_replicas.json";

  const hw::QNetDesc qnet = bench::tiny_mlp_qnet(81);
  util::Rng rng{82};
  Tensor images{Shape{32, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  // Scale the simulated clock so one sample costs ~kTargetSampleUs: pacing
  // then dominates host compute and the measured scaling is the modeled
  // accelerators', not the host scheduler's.
  hw::AcceleratorConfig accel;
  double native_sample_us = 0.0;
  {
    serve::ModelServer probe;
    probe.deploy("probe", {qnet}, paced_config(1, accel, /*paced=*/false));
    native_sample_us = probe.engine("probe")->simulated_sample_us();
    probe.shutdown();
  }
  accel.clock_hz *= native_sample_us / kTargetSampleUs;

  // ---- Phase 1: replicated deployment, bit-identical logits ---------------
  bool bit_identical = true;
  double sample_us = 0.0;
  {
    const hw::AcceleratorExecutor reference(qnet);
    serve::ModelServer server;
    // Correctness only; keep it fast.
    server.deploy("m", {qnet}, paced_config(4, accel, /*paced=*/false));
    sample_us = server.engine("m")->simulated_sample_us();

    const std::size_t checks = bench::quick_mode() ? 16 : 48;
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t i = 0; i < checks; ++i) {
      const std::size_t img = i % images.shape().n();
      futures.push_back(server.submit(
          "m", tensor::slice_outer(images, img, img + 1)));
    }
    for (std::size_t i = 0; i < checks; ++i) {
      const std::size_t img = i % images.shape().n();
      const Tensor sample = tensor::slice_outer(images, img, img + 1);
      const serve::Response response = futures[i].get();
      if (!serve::ok(response.status) ||
          tensor::max_abs_diff(response.logits, reference.run(sample)) !=
              0.0f) {
        bit_identical = false;
      }
    }
    server.shutdown();
  }
  std::printf("phase 1: 4-replica logits bit-identical to run(): %s "
              "(paced sample cost %.0f us)\n",
              bit_identical ? "yes" : "NO", sample_us);

  // ---- Phase 2: throughput scaling at 1/2/4 replicas ----------------------
  const std::size_t requests = bench::quick_mode() ? 120 : 240;
  const std::vector<std::size_t> replica_counts{1, 2, 4};
  std::vector<double> throughput_rps;
  for (const std::size_t replicas : replica_counts) {
    const double seconds =
        run_throughput(qnet, accel, images, replicas, requests);
    throughput_rps.push_back(static_cast<double>(requests) / seconds);
  }
  const double speedup_2x = throughput_rps[1] / throughput_rps[0];
  const double speedup_4x = throughput_rps[2] / throughput_rps[0];

  util::TablePrinter scaling("Replica scaling, paced closed loop (" +
                             std::to_string(requests) + " kBatch requests)");
  scaling.set_header({"replicas", "throughput (req/s)", "speedup"});
  for (std::size_t i = 0; i < replica_counts.size(); ++i) {
    scaling.add_row({std::to_string(replica_counts[i]),
                     util::fmt_fixed(throughput_rps[i], 1),
                     util::fmt_fixed(throughput_rps[i] / throughput_rps[0],
                                     2) + "x"});
  }
  scaling.print();

  // ---- Phase 3: interactive p99 under overload, 1 vs 4 replicas -----------
  const std::int64_t p99_single =
      run_overload_tail(qnet, accel, images, 1);
  const std::int64_t p99_replicated =
      run_overload_tail(qnet, accel, images, 4);
  const double tail_improvement =
      p99_replicated > 0 ? static_cast<double>(p99_single) /
                               static_cast<double>(p99_replicated)
                         : 0.0;
  std::printf("phase 3: interactive p99 under overload: single %lld us, "
              "4 replicas %lld us (%.2fx better)\n",
              static_cast<long long>(p99_single),
              static_cast<long long>(p99_replicated), tail_improvement);

  // ---- Report + acceptance ------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ablation_replicas\",\n"
       << "  \"paced_sample_us\": " << sample_us << ",\n"
       << "  \"requests\": " << requests << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"throughput_rps\": {\"r1\": " << throughput_rps[0]
       << ", \"r2\": " << throughput_rps[1] << ", \"r4\": "
       << throughput_rps[2] << "},\n"
       << "  \"speedup_2_replicas\": " << speedup_2x << ",\n"
       << "  \"speedup_4_replicas\": " << speedup_4x << ",\n"
       << "  \"interactive_p99_us\": {\"r1\": " << p99_single << ", \"r4\": "
       << p99_replicated << "},\n"
       << "  \"interactive_p99_improvement\": " << tail_improvement << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (!bit_identical) {
    std::printf("FAIL: replicated logits diverged from per-sample run()\n");
    return 1;
  }
  if (speedup_2x < 1.7 || speedup_4x < 3.0) {
    std::printf("FAIL: replica scaling below threshold (2x: %.2f, need "
                ">= 1.7; 4x: %.2f, need >= 3.0)\n",
                speedup_2x, speedup_4x);
    return 1;
  }
  if (p99_replicated >= p99_single) {
    std::printf("FAIL: 4 replicas did not improve interactive p99 under "
                "overload\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
