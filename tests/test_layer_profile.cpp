// LayerProfiler: the per-layer profile must reconcile *bit-exactly*
// (integer ==, not approximately) with the CycleModel and TrafficModel the
// serving cost accounting is priced on — same workload, same tables, no
// recomputation drift. Also covers accumulation across passes, occupancy
// bounds, flatten-row mapping, compiled-plan host-time recording, and the
// engine-integrated profiles a ModelServer deployment exposes. Runs under
// ThreadSanitizer and ASan+UBSan in CI (see ci.yml): record_pass /
// record_layer_host_ns race snapshot() by design.
#include "hw/layer_profile.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <variant>
#include <vector>

#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "hw/executor.hpp"
#include "hw/traffic_model.hpp"
#include "nn/zoo.hpp"
#include "serve/server.hpp"

namespace mfdfp::hw {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 16, kInW = 16;

/// Conv net (conv/pool/relu blocks + fc): exercises every row kind the
/// profiler distinguishes, plus the flatten layer it must skip.
QNetDesc make_conv_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 5;
  config.width_multiplier = 0.25f;
  nn::Network net = nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{6, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return extract_qnet(net, spec, "profiled");
}

QNetDesc make_mlp_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return extract_qnet(net, spec, "mlp");
}

TEST(LayerProfiler, PerSampleCyclesReconcileBitExactlyWithCycleModel) {
  const QNetDesc desc = make_conv_qnet(11);
  const AcceleratorConfig config;
  const LayerProfiler profiler(desc, kInC, kInH, kInW, config);

  // The independent ground truth: the exact pipeline serving costs use.
  const std::vector<LayerWork> work =
      workload_from_qnet(desc, kInC, kInH, kInW);
  const CycleReport cycles = count_cycles(work, config);

  const LayerProfile profile = profiler.snapshot();
  ASSERT_EQ(profile.rows.size(), cycles.layers.size());
  EXPECT_EQ(profile.cycles_per_sample_total, cycles.total_cycles);

  std::uint64_t row_sum = 0;
  for (std::size_t i = 0; i < profile.rows.size(); ++i) {
    EXPECT_EQ(profile.rows[i].name, cycles.layers[i].name);
    EXPECT_EQ(profile.rows[i].cycles_per_sample, cycles.layers[i].cycles);
    EXPECT_EQ(profile.rows[i].macs_per_sample, cycles.layers[i].macs);
    row_sum += profile.rows[i].cycles_per_sample;
  }
  EXPECT_EQ(row_sum, cycles.total_cycles);
}

TEST(LayerProfiler, DmaRowsMatchTrafficModel) {
  const QNetDesc desc = make_conv_qnet(12);
  const AcceleratorConfig config;
  const LayerProfiler profiler(desc, kInC, kInH, kInW, config);

  const std::vector<LayerWork> work =
      workload_from_qnet(desc, kInC, kInH, kInW);
  const TrafficReport traffic = dma_traffic(work, config);

  const LayerProfile profile = profiler.snapshot();
  ASSERT_EQ(profile.rows.size(), traffic.layers.size());
  for (std::size_t i = 0; i < profile.rows.size(); ++i) {
    EXPECT_EQ(profile.rows[i].weight_bytes, traffic.layers[i].weight_bytes);
    EXPECT_EQ(profile.rows[i].act_bytes_per_sample,
              traffic.layers[i].input_bytes + traffic.layers[i].output_bytes);
  }
}

TEST(LayerProfiler, AccumulatedTotalsAreExactlySamplesTimesPerSample) {
  const QNetDesc desc = make_conv_qnet(13);
  LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});

  profiler.record_pass(4);
  profiler.record_pass(4);
  profiler.record_pass(4);
  profiler.record_pass(1);

  const LayerProfile profile = profiler.snapshot();
  EXPECT_EQ(profile.passes, 4u);
  EXPECT_EQ(profile.samples, 13u);
  EXPECT_EQ(profile.cycles_total,
            profile.samples * profile.cycles_per_sample_total);

  std::uint64_t row_total_sum = 0;
  for (const LayerProfileRow& row : profile.rows) {
    EXPECT_EQ(row.cycles_total, profile.samples * row.cycles_per_sample);
    row_total_sum += row.cycles_total;
  }
  EXPECT_EQ(row_total_sum, profile.cycles_total);
}

TEST(LayerProfiler, OccupancyIsBoundedAndZeroForNonMacLayers) {
  const QNetDesc desc = make_conv_qnet(14);
  const LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});

  bool saw_mac_layer = false;
  bool saw_pool_layer = false;
  for (const LayerProfileRow& row : profiler.snapshot().rows) {
    if (row.kind == LayerWork::Kind::kConv ||
        row.kind == LayerWork::Kind::kFullyConnected) {
      saw_mac_layer = true;
      EXPECT_GT(row.occupancy, 0.0) << row.name;
      EXPECT_LE(row.occupancy, 1.0) << row.name;
    } else {
      saw_pool_layer = true;
      EXPECT_EQ(row.occupancy, 0.0) << row.name;
    }
  }
  EXPECT_TRUE(saw_mac_layer);
  EXPECT_TRUE(saw_pool_layer);
}

TEST(LayerProfiler, FlattenLayersAreExcludedFromTheProfile) {
  const QNetDesc desc = make_mlp_qnet(15);
  std::size_t flatten_layers = 0;
  for (const QLayer& layer : desc.layers) {
    if (std::holds_alternative<QFlatten>(layer)) ++flatten_layers;
  }
  ASSERT_GT(flatten_layers, 0u);  // the MLP leads with a flatten

  const LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});
  const std::vector<LayerWork> work =
      workload_from_qnet(desc, kInC, kInH, kInW);
  // One row per workload layer; flatten contributes none.
  EXPECT_EQ(profiler.layer_count(), work.size());
  EXPECT_EQ(profiler.layer_count() + flatten_layers,
            desc.layers.size());
}

TEST(LayerProfiler, HostNsForFlattenAndOutOfRangeLayersIsIgnored) {
  const QNetDesc desc = make_mlp_qnet(16);
  LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});

  // Desc layer 0 is the flatten; both it and a bogus index must be dropped.
  profiler.record_layer_host_ns(0, 1000);
  profiler.record_layer_host_ns(desc.layers.size() + 5, 1000);
  EXPECT_EQ(profiler.snapshot().host_ns_total, 0u);

  // A real (post-flatten) layer accumulates.
  profiler.record_layer_host_ns(1, 250);
  profiler.record_layer_host_ns(1, 250);
  const LayerProfile profile = profiler.snapshot();
  EXPECT_EQ(profile.host_ns_total, 500u);
  EXPECT_EQ(profile.rows[0].host_ns_total, 500u);
}

TEST(LayerProfiler, PlanReportsPassesSamplesAndHostTime) {
  const QNetDesc desc = make_conv_qnet(17);
  LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});
  const auto plan = compile::compile_qnet(desc, kInC, kInH, kInW);

  util::Rng rng{99};
  Tensor images{Shape{3, kInC, kInH, kInW}};
  images.fill_uniform(rng, -1.0f, 1.0f);
  ExecScratch scratch;
  const Tensor with_profiler =
      compile::run_plan_batch(*plan, images, scratch, &profiler);

  const LayerProfile profile = profiler.snapshot();
  EXPECT_EQ(profile.passes, 1u);
  EXPECT_EQ(profile.samples, 3u);
  EXPECT_GT(profile.host_ns_total, 0u);
  // Every row burned measurable host time in its own plan step.
  for (const LayerProfileRow& row : profile.rows) {
    EXPECT_GT(row.host_ns_total, 0u) << row.name;
  }

  // Profiling must not perturb the math: logits stay bit-identical.
  ExecScratch scratch2;
  const Tensor without_profiler =
      compile::run_plan_batch(*plan, images, scratch2);
  ASSERT_EQ(with_profiler.size(), without_profiler.size());
  for (std::size_t i = 0; i < with_profiler.size(); ++i) {
    EXPECT_EQ(with_profiler[i], without_profiler[i]);
  }
}

// The TSan target: workers hammer the accumulators while a reader snapshots.
TEST(LayerProfiler, ConcurrentRecordingAndSnapshotting) {
  const QNetDesc desc = make_conv_qnet(18);
  LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPassesPerThread = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const LayerProfile profile = profiler.snapshot();
      // Monotonic counters: totals always reconcile with the snapshot's
      // own sample count, even mid-race.
      EXPECT_EQ(profile.cycles_total,
                profile.samples * profile.cycles_per_sample_total);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::size_t i = 0; i < kPassesPerThread; ++i) {
        profiler.record_pass(2);
        profiler.record_layer_host_ns(1, 10);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const LayerProfile profile = profiler.snapshot();
  EXPECT_EQ(profile.passes, kThreads * kPassesPerThread);
  EXPECT_EQ(profile.samples, 2 * kThreads * kPassesPerThread);
}

TEST(LayerProfile, EngineIntegrationCountsEveryServedSample) {
  serve::ModelServer server;
  serve::DeployConfig config;
  config.in_c = kInC;
  config.in_h = config.in_w = kInH;
  config.max_batch = 4;
  config.max_wait_us = 1000;
  config.workers = 1;
  server.deploy("cnn", {make_conv_qnet(19)}, config);

  util::Rng rng{7};
  constexpr std::size_t kRequests = 6;
  std::vector<std::future<serve::Response>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    Tensor image{Shape{kInC, kInH, kInW}};
    image.fill_uniform(rng, -1.0f, 1.0f);
    futures.push_back(server.submit("cnn", std::move(image)));
  }
  for (std::future<serve::Response>& future : futures) {
    EXPECT_EQ(future.get().status, serve::StatusCode::kOk);
  }

  const std::vector<LayerProfile> profiles =
      server.engine("cnn")->layer_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  const LayerProfile& profile = profiles.front();
  EXPECT_EQ(profile.samples, kRequests);
  EXPECT_GE(profile.passes, 1u);
  EXPECT_LE(profile.passes, kRequests);

  // Served cycles reconcile with the cycle model, end to end.
  const std::vector<LayerWork> work =
      workload_from_qnet(make_conv_qnet(19), kInC, kInH, kInW);
  const CycleReport cycles = count_cycles(work, config.accel);
  EXPECT_EQ(profile.cycles_per_sample_total, cycles.total_cycles);
  EXPECT_EQ(profile.cycles_total, kRequests * cycles.total_cycles);
  EXPECT_GT(profile.host_ns_total, 0u);
}

TEST(LayerProfile, EnsembleExposesOneProfilePerMember) {
  serve::ModelServer server;
  serve::DeployConfig config;
  config.in_c = kInC;
  config.in_h = config.in_w = kInH;
  config.max_batch = 4;
  config.max_wait_us = 1000;
  config.workers = 1;
  server.deploy("ens", {make_mlp_qnet(20), make_mlp_qnet(21)}, config);

  util::Rng rng{8};
  Tensor image{Shape{kInC, kInH, kInW}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  EXPECT_EQ(server.submit("ens", std::move(image)).get().status,
            serve::StatusCode::kOk);

  const std::vector<LayerProfile> profiles =
      server.engine("ens")->layer_profiles();
  ASSERT_EQ(profiles.size(), 2u);
  for (const LayerProfile& profile : profiles) {
    EXPECT_EQ(profile.samples, 1u);
    EXPECT_EQ(profile.cycles_total, profile.cycles_per_sample_total);
  }
}

TEST(RenderLayerProfileTable, ShowsEveryRowAndTheTotals) {
  const QNetDesc desc = make_conv_qnet(22);
  LayerProfiler profiler(desc, kInC, kInH, kInW, AcceleratorConfig{});
  profiler.record_pass(4);
  const LayerProfile profile = profiler.snapshot();

  const std::string table = render_layer_profile_table(profile, "cnn");
  EXPECT_NE(table.find("per-layer profile"), std::string::npos);
  EXPECT_NE(table.find("4 samples"), std::string::npos);
  EXPECT_NE(table.find("cycles/sample"), std::string::npos);
  EXPECT_NE(table.find("occupancy"), std::string::npos);
  for (const LayerProfileRow& row : profile.rows) {
    EXPECT_NE(table.find(row.name), std::string::npos) << row.name;
  }
  EXPECT_NE(table.find(std::to_string(profile.cycles_per_sample_total)),
            std::string::npos);
}

}  // namespace
}  // namespace mfdfp::hw
