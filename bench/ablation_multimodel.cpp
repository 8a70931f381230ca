// Multi-model ModelServer ablation: mixed two-model, two-priority traffic.
//
// Three phases:
//  1. correctness — a single-net model ("cnn") and a 2-member averaged-logit
//     ensemble ("ens") deployed concurrently on one ModelServer must return
//     logits bit-identical to per-sample AcceleratorExecutor::run() /
//     run_ensemble(), across both priority classes;
//  2. priority ablation — the same overloaded mixed traffic (a standing
//     kBatch backlog on both models, periodic kInteractive probes) runs once
//     with strict-priority scheduling and once with plain FIFO; interactive
//     p99 must be strictly better with priority scheduling;
//  3. admission control — with shedding enabled, tight-budget kBatch traffic
//     submitted into a standing backlog is refused as kShedded instead of
//     queueing work that cannot finish in time.
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_multimodel.json);
// scripts/run_bench.sh folds it into BENCH_serve.json next to the git SHA.
// Exits nonzero when any phase fails its acceptance check. MFDFP_QUICK=1
// shrinks the probe counts.
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
#include "util/latency_histogram.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

hw::QNetDesc make_cnn_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{8, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "cnn");
}

serve::DeployConfig overload_config(bool priority_scheduling) {
  serve::DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  // One worker and a short coalescing wait: the standing backlog, not
  // batch formation, dominates latency — exactly the regime priority classes target.
  config.workers = 1;
  config.max_batch = 8;
  config.max_wait_us = 200;
  config.queue_capacity = 8192;
  config.priority_scheduling = priority_scheduling;
  config.admission_control = false;  // phase 3 turns it on separately
  return config;
}

struct MixedTrafficResult {
  std::int64_t interactive_p99_us = 0;
  std::int64_t interactive_p50_us = 0;
  std::int64_t batch_p99_us = 0;
  std::size_t probes = 0;
  std::size_t batch_requests = 0;
};

/// Drives both models with a standing kBatch backlog plus periodic
/// kInteractive probes and reports the merged interactive tail.
MixedTrafficResult run_mixed_traffic(const hw::QNetDesc& cnn,
                                     const std::vector<hw::QNetDesc>& ens,
                                     const Tensor& images,
                                     bool priority_scheduling) {
  const std::size_t probes_per_model = bench::quick_mode() ? 10 : 24;
  constexpr std::size_t kBacklog = 96;
  constexpr std::int64_t kProbeGapUs = 2000;
  const std::vector<std::string> names{"cnn", "ens"};

  serve::ModelServer server;
  server.deploy("cnn", {cnn}, overload_config(priority_scheduling));
  server.deploy("ens", ens, overload_config(priority_scheduling));

  const std::size_t pool = images.shape().n();
  std::size_t next_image = 0;
  auto sample = [&] {
    const std::size_t i = next_image++ % pool;
    return tensor::slice_outer(images, i, i + 1);
  };

  serve::SubmitOptions batch_options;
  batch_options.priority = serve::Priority::kBatch;
  batch_options.deadline_us = 0;  // backlog traffic never expires
  serve::SubmitOptions interactive_options;
  interactive_options.priority = serve::Priority::kInteractive;
  interactive_options.deadline_us = 0;

  std::vector<std::future<serve::Response>> batch_futures;
  std::vector<std::future<serve::Response>> interactive_futures;
  auto top_up = [&](const std::string& name) {
    const auto engine = server.engine(name);
    while (engine->queue_depth() < kBacklog) {
      batch_futures.push_back(server.submit(name, sample(), batch_options));
    }
  };

  for (std::size_t k = 0; k < probes_per_model; ++k) {
    for (const std::string& name : names) {
      top_up(name);  // keep the engine overloaded at probe time
      interactive_futures.push_back(
          server.submit(name, sample(), interactive_options));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kProbeGapUs));
  }

  MixedTrafficResult result;
  util::LatencyHistogram interactive_e2e;
  for (auto& future : interactive_futures) {
    const serve::Response response = future.get();
    if (!serve::ok(response.status)) std::abort();
    interactive_e2e.record(response.e2e_us);
  }
  util::LatencyHistogram batch_e2e;
  for (auto& future : batch_futures) {
    const serve::Response response = future.get();
    if (!serve::ok(response.status)) std::abort();
    batch_e2e.record(response.e2e_us);
  }
  server.shutdown();

  result.interactive_p99_us = interactive_e2e.p99();
  result.interactive_p50_us = interactive_e2e.p50();
  result.batch_p99_us = batch_e2e.p99();
  result.probes = interactive_futures.size();
  result.batch_requests = batch_futures.size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_multimodel.json";

  const hw::QNetDesc cnn = make_cnn_qnet(91);
  const std::vector<hw::QNetDesc> ens{bench::tiny_mlp_qnet(92),
                                      bench::tiny_mlp_qnet(93)};
  util::Rng rng{94};
  Tensor images{Shape{32, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  // ---- Phase 1: two concurrent models, bit-identical logits ---------------
  bool bit_identical = true;
  {
    const hw::AcceleratorExecutor ref_cnn(cnn);
    const hw::AcceleratorExecutor ref_a(ens[0]), ref_b(ens[1]);
    const std::vector<const hw::AcceleratorExecutor*> ref_members{&ref_a,
                                                                  &ref_b};
    serve::ModelServer server;
    serve::DeployConfig config = overload_config(true);
    config.workers = 2;
    server.deploy("cnn", {cnn}, config);
    server.deploy("ens", ens, config);

    const std::size_t checks = bench::quick_mode() ? 12 : 32;
    std::vector<std::future<serve::Response>> cnn_futures, ens_futures;
    for (std::size_t i = 0; i < checks; ++i) {
      serve::SubmitOptions options;
      options.priority = i % 2 == 0 ? serve::Priority::kInteractive
                                    : serve::Priority::kBatch;
      const std::size_t img = i % images.shape().n();
      cnn_futures.push_back(server.submit(
          "cnn", tensor::slice_outer(images, img, img + 1), options));
      ens_futures.push_back(server.submit(
          "ens", tensor::slice_outer(images, img, img + 1), options));
    }
    for (std::size_t i = 0; i < checks; ++i) {
      const std::size_t img = i % images.shape().n();
      const Tensor sample = tensor::slice_outer(images, img, img + 1);
      const serve::Response from_cnn = cnn_futures[i].get();
      const serve::Response from_ens = ens_futures[i].get();
      if (!serve::ok(from_cnn.status) || !serve::ok(from_ens.status) ||
          tensor::max_abs_diff(from_cnn.logits, ref_cnn.run(sample)) !=
              0.0f ||
          tensor::max_abs_diff(from_ens.logits,
                               hw::run_ensemble(ref_members, sample)) !=
              0.0f) {
        bit_identical = false;
      }
    }
    server.shutdown();
  }
  std::printf("phase 1: two-model logits bit-identical to run(): %s\n",
              bit_identical ? "yes" : "NO");

  // ---- Phase 2: strict priority vs FIFO under the same mixed load ---------
  const MixedTrafficResult with_priority =
      run_mixed_traffic(cnn, ens, images, /*priority_scheduling=*/true);
  const MixedTrafficResult fifo =
      run_mixed_traffic(cnn, ens, images, /*priority_scheduling=*/false);
  const double improvement =
      with_priority.interactive_p99_us > 0
          ? static_cast<double>(fifo.interactive_p99_us) /
                static_cast<double>(with_priority.interactive_p99_us)
          : 0.0;

  util::TablePrinter table("Mixed two-model traffic (" +
                           std::to_string(with_priority.probes) +
                           " interactive probes, backlog 96/model)");
  table.set_header(
      {"scheduling", "interactive p50 us", "interactive p99 us",
       "batch p99 us"});
  table.add_row({"strict priority",
                 std::to_string(with_priority.interactive_p50_us),
                 std::to_string(with_priority.interactive_p99_us),
                 std::to_string(with_priority.batch_p99_us)});
  table.add_row({"FIFO (no classes)",
                 std::to_string(fifo.interactive_p50_us),
                 std::to_string(fifo.interactive_p99_us),
                 std::to_string(fifo.batch_p99_us)});
  table.print();
  std::printf("interactive p99 improvement from priority classes: %.2fx\n",
              improvement);

  // ---- Phase 3: admission control sheds tight-budget batch traffic --------
  std::size_t shedded = 0, shed_candidates = 0;
  {
    serve::ModelServer server;
    serve::DeployConfig config = overload_config(true);
    config.admission_control = true;
    config.max_wait_us = 300'000;  // park the worker: backlog stays put
    server.deploy("cnn", {cnn}, config);

    // Budget with wall-clock headroom (a slow host must not expire the
    // candidates before admission control sees them), backlog sized so the
    // estimated queue delay is >= 3x that budget, and max_batch above the
    // backlog so the lone worker stays parked in the coalescing wait.
    const double sample_us = server.engine("cnn")->simulated_sample_us();
    const std::int64_t budget_us = std::max<std::int64_t>(
        2000, static_cast<std::int64_t>(sample_us * 16.0));
    const std::size_t backlog_depth = static_cast<std::size_t>(
        3.0 * static_cast<double>(budget_us) / sample_us) + 8;
    config.max_batch = backlog_depth + 64;
    server.deploy("cnn", {cnn}, config);  // hot redeploy, same members
    const auto engine = server.engine("cnn");

    serve::SubmitOptions backlog_options;
    backlog_options.priority = serve::Priority::kBatch;
    backlog_options.deadline_us = 0;
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t i = 0; i < backlog_depth; ++i) {
      const std::size_t img = i % images.shape().n();
      futures.push_back(server.submit(
          "cnn", tensor::slice_outer(images, img, img + 1),
          backlog_options));
    }
    shed_candidates = 32;
    std::vector<std::future<serve::Response>> candidates;
    for (std::size_t i = 0; i < shed_candidates; ++i) {
      serve::SubmitOptions tight;
      tight.priority = serve::Priority::kBatch;
      tight.deadline_us = util::Stopwatch::now_us() + budget_us;
      const std::size_t img = i % images.shape().n();
      candidates.push_back(server.submit(
          "cnn", tensor::slice_outer(images, img, img + 1), tight));
    }
    for (auto& future : candidates) {
      if (future.get().status == serve::StatusCode::kShedded) ++shedded;
    }
    server.shutdown();
    for (auto& future : futures) (void)future.get();
  }
  std::printf("phase 3: admission control shed %zu/%zu tight-budget batch "
              "requests\n", shedded, shed_candidates);

  // ---- Report + acceptance ------------------------------------------------
  const bool priority_wins =
      with_priority.interactive_p99_us < fifo.interactive_p99_us;
  const bool sheds = shedded > 0;

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ablation_multimodel\",\n"
       << "  \"models\": 2,\n"
       << "  \"interactive_probes\": " << with_priority.probes << ",\n"
       << "  \"batch_requests_priority\": " << with_priority.batch_requests
       << ",\n"
       << "  \"batch_requests_fifo\": " << fifo.batch_requests << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"interactive_p50_us\": {\"priority\": "
       << with_priority.interactive_p50_us << ", \"fifo\": "
       << fifo.interactive_p50_us << "},\n"
       << "  \"interactive_p99_us\": {\"priority\": "
       << with_priority.interactive_p99_us << ", \"fifo\": "
       << fifo.interactive_p99_us << "},\n"
       << "  \"batch_p99_us\": {\"priority\": " << with_priority.batch_p99_us
       << ", \"fifo\": " << fifo.batch_p99_us << "},\n"
       << "  \"interactive_p99_improvement\": " << improvement << ",\n"
       << "  \"shedded\": " << shedded << ",\n"
       << "  \"shed_candidates\": " << shed_candidates << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (!bit_identical) {
    std::printf("FAIL: served logits diverged from per-sample run()\n");
    return 1;
  }
  if (!priority_wins) {
    std::printf("FAIL: interactive p99 not improved by priority classes\n");
    return 1;
  }
  if (!sheds) {
    std::printf("FAIL: admission control shed nothing under overload\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
