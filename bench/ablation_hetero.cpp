// Heterogeneous-placement ablation: one model behind differently-
// provisioned accelerator devices (DeviceSpec.speed_factor) on one name.
//
// Three phases:
//  1. correctness — {1x, 2x} and {1x, 1x, 4x} placements must return logits
//     bit-identical to per-sample AcceleratorExecutor::run(), whichever
//     device serves each request (provisioning changes *when* a batch
//     finishes, never *what* it computes);
//  2. throughput scaling — the same closed-loop kBatch workload runs against
//     a single 1x replica and the two heterogeneous mixes, each device a
//     paced one-tenant SharedDevice (its dispatcher holds a batch until
//     that *device's* cycle model says it would finish, so wall-clock
//     throughput tracks the modeled provisioning); aggregate throughput
//     must reach >= 0.85x the sum of device speeds ({1x, 2x}: >= 2.55x one
//     1x replica, which also covers the >= 2.5x acceptance bar; {1x, 1x,
//     4x}: >= 5.1x) — routing that ignored provisioning would leave the 4x
//     device starved and fail this;
//  3. routing ablation — under a standing kBatch backlog on a {1x, 4x}
//     placement, bursts of kInteractive probes must see a strictly better
//     p99 with the default normalized-work routing (RoutingPolicy::
//     kNormalizedWork) than with speed-blind least-outstanding-count
//     routing: counting requests queues as many probes behind the 1x device
//     as behind the 4x one, and the 1x device paces 4x slower.
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_hetero.json);
// scripts/run_bench.sh folds it into BENCH_serve.json next to the git SHA.
// Exits nonzero when any phase fails its acceptance check. MFDFP_QUICK=1
// shrinks the request counts.
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

/// Per-sample modeled cost on a 1x device, microseconds. Large enough that
/// pacing sleeps dominate the host-side MLP compute (a few us per sample),
/// so measured scaling reflects the modeled devices.
constexpr double kTargetSampleUs = 400.0;

/// One device per speed. With `paced` (the measured phases) each is its own
/// paced one-tenant PU; without it a plain unpaced dedicated device
/// (correctness only).
std::vector<serve::DeviceSpec> make_placement(
    const std::vector<double>& speeds, bool paced) {
  std::vector<serve::DeviceSpec> placement;
  placement.reserve(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    serve::DeviceSpec device{
        .name = "npu" + std::to_string(i) + "-" +
                util::fmt_fixed(speeds[i], 0) + "x",
        .speed_factor = speeds[i]};
    if (paced) {
      device = serve::DeviceSpec::on(serve::SharedDevice::create(
          std::move(device), {.coalesce_window_us = 0, .paced = true}));
    }
    placement.push_back(std::move(device));
  }
  return placement;
}

std::string placement_label(const std::vector<double>& speeds) {
  std::string label = "{";
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    if (i != 0) label += ",";
    label += util::fmt_fixed(speeds[i], 0) + "x";
  }
  return label + "}";
}

/// With `scale_batch_with_speed`, each device's max_batch grows with its
/// speed_factor (a per-entry DeviceSpec override, which also applies to a
/// tenant on a shared PU), keeping the pacing quantum — batch samples x
/// per-sample device time — constant across the mix: a 4x device would
/// otherwise close 4x as many batches per second and pay the host-side
/// per-batch overhead (formation, wakeup jitter) 4x as often,
/// understating the modeled hardware's aggregate throughput.
serve::DeployConfig paced_config(const std::vector<double>& speeds,
                                 const hw::AcceleratorConfig& accel,
                                 bool scale_batch_with_speed = false,
                                 bool paced = true) {
  serve::DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 1;  // one drain thread per modeled accelerator
  config.max_batch = 8;
  config.max_wait_us = 200;
  config.queue_capacity = 8192;
  config.placement = make_placement(speeds, paced);
  if (scale_batch_with_speed) {
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      config.placement[i].max_batch = static_cast<std::size_t>(
          static_cast<double>(config.max_batch) * speeds[i] + 0.5);
    }
  }
  config.accel = accel;
  return config;
}

/// Closed-loop kBatch workload: preload `requests` samples, wait for all.
/// Returns wall seconds from first submit to last completion.
double run_throughput(const hw::QNetDesc& qnet,
                      const hw::AcceleratorConfig& accel,
                      const Tensor& images, const std::vector<double>& speeds,
                      std::size_t requests) {
  serve::ModelServer server;
  server.deploy("m", {qnet},
                paced_config(speeds, accel, /*scale_batch_with_speed=*/true));

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

/// Standing kBatch backlog on a {1x, 4x} placement + bursts of interactive
/// probes; returns the probes' p99 e2e latency, microseconds.
std::int64_t run_overload_tail(const hw::QNetDesc& qnet,
                               const hw::AcceleratorConfig& accel,
                               const Tensor& images,
                               serve::RoutingPolicy routing) {
  const std::size_t rounds = bench::quick_mode() ? 4 : 8;
  constexpr std::size_t kBurst = 24;
  constexpr std::size_t kBacklog = 96;

  serve::ModelServer server;
  serve::DeployConfig config = paced_config({1.0, 4.0}, accel);
  config.routing = routing;
  server.deploy("m", {qnet}, config);
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
    // Keep both devices saturated with paced batch work at probe time.
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
  const char* json_path = argc > 1 ? argv[1] : "BENCH_hetero.json";

  const hw::QNetDesc qnet = bench::tiny_mlp_qnet(91);
  util::Rng rng{92};
  Tensor images{Shape{32, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  // Scale the modeled clock so one sample costs ~kTargetSampleUs on a 1x
  // device: pacing then dominates host compute and the measured scaling is
  // the modeled devices', not the host scheduler's.
  hw::AcceleratorConfig accel;
  {
    serve::ModelServer probe;
    probe.deploy("probe", {qnet},
                 paced_config({1.0}, accel, /*scale_batch_with_speed=*/false,
                              /*paced=*/false));
    const double native_us = probe.engine("probe")->simulated_sample_us();
    probe.shutdown();
    accel.clock_hz *= native_us / kTargetSampleUs;
  }

  const std::vector<std::vector<double>> mixes{{1.0, 2.0}, {1.0, 1.0, 4.0}};

  // ---- Phase 1: heterogeneous placements, bit-identical logits ------------
  bool bit_identical = true;
  {
    const hw::AcceleratorExecutor reference(qnet);
    for (const std::vector<double>& speeds : mixes) {
      serve::ModelServer server;
      // Correctness only; keep it fast.
      server.deploy("m", {qnet},
                    paced_config(speeds, accel,
                                 /*scale_batch_with_speed=*/false,
                                 /*paced=*/false));

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
        if (!serve::ok(response.status) || response.device.empty() ||
            tensor::max_abs_diff(response.logits, reference.run(sample)) !=
                0.0f) {
          bit_identical = false;
        }
      }
      server.shutdown();
    }
  }
  std::printf("phase 1: heterogeneous logits bit-identical to run(): %s\n",
              bit_identical ? "yes" : "NO");

  // ---- Phase 2: aggregate throughput vs sum of device speeds --------------
  const std::size_t requests = bench::quick_mode() ? 120 : 240;
  const double baseline_rps =
      static_cast<double>(requests) /
      run_throughput(qnet, accel, images, {1.0}, requests);

  util::TablePrinter scaling("Heterogeneous scaling, paced closed loop (" +
                             std::to_string(requests) + " kBatch requests)");
  scaling.set_header({"placement", "total speed", "throughput (req/s)",
                      "speedup vs 1x", "efficiency"});
  scaling.add_row({"{1x}", "1.0", util::fmt_fixed(baseline_rps, 1), "1.00x",
                   "1.00"});
  std::vector<double> speedups, efficiencies, totals;
  for (const std::vector<double>& speeds : mixes) {
    double total = 0.0;
    for (const double speed : speeds) total += speed;
    const double rps =
        static_cast<double>(requests) /
        run_throughput(qnet, accel, images, speeds, requests);
    const double speedup = rps / baseline_rps;
    speedups.push_back(speedup);
    efficiencies.push_back(speedup / total);
    totals.push_back(total);
    scaling.add_row({placement_label(speeds), util::fmt_fixed(total, 1),
                     util::fmt_fixed(rps, 1),
                     util::fmt_fixed(speedup, 2) + "x",
                     util::fmt_fixed(speedup / total, 2)});
  }
  scaling.print();

  // ---- Phase 3: normalized vs speed-blind routing on {1x, 4x} -------------
  const std::int64_t p99_normalized = run_overload_tail(
      qnet, accel, images, serve::RoutingPolicy::kNormalizedWork);
  const std::int64_t p99_blind = run_overload_tail(
      qnet, accel, images, serve::RoutingPolicy::kOutstandingCount);
  const double routing_improvement =
      p99_normalized > 0 ? static_cast<double>(p99_blind) /
                               static_cast<double>(p99_normalized)
                         : 0.0;
  std::printf("phase 3: interactive p99 under overload on {1x,4x}: "
              "%s %lld us, %s %lld us (%.2fx better)\n",
              serve::routing_policy_name(
                  serve::RoutingPolicy::kNormalizedWork),
              static_cast<long long>(p99_normalized),
              serve::routing_policy_name(
                  serve::RoutingPolicy::kOutstandingCount),
              static_cast<long long>(p99_blind), routing_improvement);

  // ---- Report + acceptance ------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ablation_hetero\",\n"
       << "  \"paced_sample_us_1x\": " << kTargetSampleUs << ",\n"
       << "  \"requests\": " << requests << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"baseline_rps_1x\": " << baseline_rps << ",\n"
       << "  \"speedup_1x_2x\": " << speedups[0] << ",\n"
       << "  \"speedup_1x_1x_4x\": " << speedups[1] << ",\n"
       << "  \"efficiency_1x_2x\": " << efficiencies[0] << ",\n"
       << "  \"efficiency_1x_1x_4x\": " << efficiencies[1] << ",\n"
       << "  \"interactive_p99_us\": {\""
       << serve::routing_policy_name(serve::RoutingPolicy::kNormalizedWork)
       << "\": " << p99_normalized << ", \""
       << serve::routing_policy_name(serve::RoutingPolicy::kOutstandingCount)
       << "\": " << p99_blind << "},\n"
       << "  \"routing_p99_improvement\": " << routing_improvement << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (!bit_identical) {
    std::printf("FAIL: heterogeneous logits diverged from per-sample "
                "run()\n");
    return 1;
  }
  // >= 0.85x the sum of device speeds for every mix; for {1x, 2x} the 2.55x
  // floor also covers the >= 2.5x acceptance bar.
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    const double floor = 0.85 * totals[i];
    if (speedups[i] < floor) {
      std::printf("FAIL: %s aggregate throughput %.2fx one 1x replica, need "
                  ">= %.2fx (0.85 x total speed %.1f)\n",
                  placement_label(mixes[i]).c_str(), speedups[i], floor,
                  totals[i]);
      return 1;
    }
  }
  if (p99_normalized >= p99_blind) {
    std::printf("FAIL: normalized routing did not beat speed-blind routing "
                "on interactive p99 under overload\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
