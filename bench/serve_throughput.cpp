// Serving load generator: serial per-request baseline vs the batched
// ModelServer, closed-loop and open-loop (Poisson arrivals).
//
// Three phases over the same synthetic CIFAR-style workload:
//  A. serial baseline — one thread, one AcceleratorExecutor::run per request
//     (the repo's only serving story before src/serve existed);
//  B. closed-loop batched — K client threads submit back-to-back into a
//     ModelServer deployment (dynamic batching + worker pool + compiled plans);
//  C. open-loop Poisson — requests arrive at a fixed fraction of the
//     measured batched capacity, the realistic traffic shape.
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_serve.json) with
// throughput and tail latency for the perf trajectory — scripts/run_bench.sh
// wraps it together with the multi-model ablation numbers and the git SHA —
// and exits nonzero if batched serving fails the >= 2x acceptance bar over
// the serial baseline. MFDFP_QUICK=1 shrinks the request counts ~4x.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "util/latency_histogram.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

struct Workload {
  hw::QNetDesc qnet;
  Tensor images;  ///< {N, 3, 16, 16}
};

Workload make_workload(std::size_t request_count) {
  util::Rng rng{2024};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{8, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);

  Workload workload;
  workload.qnet = hw::extract_qnet(net, spec, "serve_bench");
  workload.images = Tensor{Shape{request_count, 3, 16, 16}};
  workload.images.fill_uniform(rng, -1.0f, 1.0f);
  return workload;
}

serve::DeployConfig deploy_config() {
  serve::DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.max_batch = 8;
  config.max_wait_us = 2000;
  config.workers = 4;
  config.queue_capacity = 4096;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const std::size_t requests = bench::quick_mode() ? 64 : 256;
  const Workload workload = make_workload(requests);

  // ---- Phase A: serial per-request baseline -------------------------------
  const hw::AcceleratorExecutor baseline(workload.qnet);
  util::LatencyHistogram serial_latency;
  util::Stopwatch wall;
  for (std::size_t i = 0; i < requests; ++i) {
    util::Stopwatch per_request;
    (void)baseline.run(tensor::slice_outer(workload.images, i, i + 1));
    serial_latency.record(per_request.micros());
  }
  const double serial_seconds = wall.seconds();
  const double serial_rps = static_cast<double>(requests) / serial_seconds;

  // ---- Phase B: closed-loop batched serving -------------------------------
  serve::ModelServer server;
  server.deploy("cnn", {workload.qnet}, deploy_config());
  const auto engine = server.engine("cnn");
  engine->stats().clear();
  constexpr std::size_t kClients = 8;
  wall.reset();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < requests; i += kClients) {
          auto future = server.submit(
              "cnn", tensor::slice_outer(workload.images, i, i + 1));
          if (!serve::ok(future.get().status)) std::abort();
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
  }
  const double closed_seconds = wall.seconds();
  const double batched_rps = static_cast<double>(requests) / closed_seconds;
  const serve::StatsSnapshot closed = engine->stats().snapshot();

  // ---- Phase C: open-loop Poisson arrivals at 60% of capacity -------------
  const double open_rate = 0.6 * batched_rps;
  engine->stats().clear();
  {
    util::Rng arrivals{7};
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      const double gap_s = -std::log(1.0 - arrivals.uniform()) / open_rate;
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(gap_s * 1e6)));
      futures.push_back(server.submit(
          "cnn", tensor::slice_outer(workload.images, i, i + 1)));
    }
    for (auto& future : futures) (void)future.get();
  }
  const serve::StatsSnapshot open = engine->stats().snapshot();
  server.shutdown();

  // ---- Report -------------------------------------------------------------
  const double speedup = batched_rps / serial_rps;
  util::TablePrinter table("Serving throughput (" + std::to_string(requests) +
                           " requests, batch<=8, 4 workers)");
  table.set_header({"configuration", "req/s", "p50 us", "p99 us"});
  table.add_row({"serial run()", util::fmt_fixed(serial_rps, 1),
                 std::to_string(serial_latency.p50()),
                 std::to_string(serial_latency.p99())});
  table.add_row({"engine closed-loop", util::fmt_fixed(batched_rps, 1),
                 std::to_string(closed.e2e_p50_us),
                 std::to_string(closed.e2e_p99_us)});
  table.add_row({"engine open-loop (Poisson)",
                 util::fmt_fixed(open.throughput_rps, 1),
                 std::to_string(open.e2e_p50_us),
                 std::to_string(open.e2e_p99_us)});
  table.print();
  std::printf("\nmean batch size (closed loop): %.2f\n",
              closed.mean_batch_size);
  std::printf("speedup over serial: %.2fx (acceptance bar: >= 2x)\n",
              speedup);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"serve_throughput\",\n"
       << "  \"requests\": " << requests << ",\n"
       << "  \"workers\": 4,\n"
       << "  \"max_batch\": 8,\n"
       << "  \"serial_rps\": " << serial_rps << ",\n"
       << "  \"batched_rps\": " << batched_rps << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"closed_loop\": {\"p50_us\": " << closed.e2e_p50_us
       << ", \"p95_us\": " << closed.e2e_p95_us
       << ", \"p99_us\": " << closed.e2e_p99_us
       << ", \"mean_batch\": " << closed.mean_batch_size << "},\n"
       << "  \"open_loop\": {\"rate_rps\": " << open_rate
       << ", \"throughput_rps\": " << open.throughput_rps
       << ", \"p50_us\": " << open.e2e_p50_us
       << ", \"p99_us\": " << open.e2e_p99_us
       << ", \"timed_out\": " << open.timed_out << "}\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (speedup < 2.0) {
    std::printf("FAIL: batched serving below the 2x acceptance bar\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
