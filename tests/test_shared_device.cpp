// Shared-device backend: one physical PU (SharedDevice) serving several
// models through per-tenant SharedDeviceBackends — creation/validation,
// cross-model co-batching with bit-identical logits, geometry-mismatch
// serialization, the time-sliced baseline, aggregate-backlog admission and
// routing, merged per-device stats rows, and tenant lifecycle storms
// (undeploy of one model while another keeps submitting). The whole file
// must run clean under ThreadSanitizer and ASan+UBSan (see ci.yml).
#include "serve/shared_device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/capacity.hpp"
#include "nn/zoo.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

hw::QNetDesc make_test_qnet(std::uint64_t seed, std::size_t hw_dim = 16) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = hw_dim;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, 3, hw_dim, hw_dim}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

DeployConfig small_config(std::size_t hw_dim = 16) {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = hw_dim;
  config.max_batch = 4;
  config.max_wait_us = 500;
  config.workers = 2;
  return config;
}

Tensor random_image(util::Rng& rng, std::size_t hw_dim = 16) {
  Tensor image{Shape{1, 3, hw_dim, hw_dim}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

// ---- creation / validation --------------------------------------------------

TEST(SharedDevice, CreateValidatesAndAutoNames) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double speed : {0.0, -1.0, nan}) {
    DeviceSpec bad;
    bad.speed_factor = speed;
    EXPECT_THROW(SharedDevice::create(bad), std::invalid_argument) << speed;
  }
  // Every modeled time must be finite and non-negative: a NaN pass
  // overhead used to reach the pacing cast to whole microseconds (UB), and
  // a negative granularity used to be clamped silently.
  for (const double bad_us : {-1.0, nan, inf}) {
    EXPECT_THROW(SharedDevice::create({}, {.pass_overhead_us = bad_us}),
                 std::invalid_argument)
        << "pass_overhead_us " << bad_us;
    EXPECT_THROW(SharedDevice::create({}, {.model_switch_us = bad_us}),
                 std::invalid_argument)
        << "model_switch_us " << bad_us;
    EXPECT_THROW(SharedDevice::create({}, {.preempt_granularity_us = bad_us}),
                 std::invalid_argument)
        << "preempt_granularity_us " << bad_us;
  }
  EXPECT_THROW(SharedDevice::create({}, {.coalesce_window_us = -1}),
               std::invalid_argument);

  auto pu = SharedDevice::create();
  EXPECT_EQ(pu->spec().name, "shared-pu");
  EXPECT_EQ(pu->tenant_count(), 0u);

  // A shared device cannot itself be placed on another shared device.
  EXPECT_THROW(SharedDevice::create(DeviceSpec::on(pu)),
               std::invalid_argument);
}

TEST(SharedDevice, AttachRejectsEmptyMemberList) {
  auto pu = SharedDevice::create();
  DeployConfig config = small_config();
  EXPECT_THROW(
      (void)pu->attach({}, config), std::invalid_argument);
}

// ---- cross-model co-batching ------------------------------------------------

TEST(SharedDevice, TwoModelsOnOnePuBitIdenticalLogits) {
  const hw::QNetDesc qnet_a = make_test_qnet(501);
  const hw::QNetDesc qnet_b = make_test_qnet(502);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  SharedDeviceConfig pu_config;
  pu_config.paced = false;  // correctness only; keep it fast
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);
  EXPECT_EQ(pu->tenant_count(), 2u);

  util::Rng rng{503};
  std::vector<Tensor> images;
  std::vector<std::future<Response>> futures_a, futures_b;
  for (int i = 0; i < 24; ++i) {
    images.push_back(random_image(rng));
    futures_a.push_back(server.submit("a", images.back()));
    futures_b.push_back(server.submit("b", images.back()));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Response ra = futures_a[i].get();
    const Response rb = futures_b[i].get();
    ASSERT_TRUE(ok(ra.status)) << ra.detail;
    ASSERT_TRUE(ok(rb.status)) << rb.detail;
    EXPECT_EQ(ra.device, "shared-pu");
    EXPECT_EQ(rb.device, "shared-pu");
    // Pass composition must never change what a batch computes.
    EXPECT_EQ(tensor::max_abs_diff(ra.logits, ref_a.run(images[i])), 0.0f);
    EXPECT_EQ(tensor::max_abs_diff(rb.logits, ref_b.run(images[i])), 0.0f);
  }
  server.shutdown();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GT(snapshot.passes, 0u);
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  EXPECT_EQ(snapshot.tenants[0].model, "a");
  EXPECT_EQ(snapshot.tenants[1].model, "b");
  EXPECT_EQ(snapshot.tenants[0].samples + snapshot.tenants[1].samples, 48u);
}

TEST(SharedDevice, CoBatchesAcrossModelsWhilePaced) {
  const hw::QNetDesc qnet_a = make_test_qnet(511);
  const hw::QNetDesc qnet_b = make_test_qnet(512);

  // Twelve requests per model are more than one pass can take of either
  // (two workers x max_batch 4 in flight), so both models still have work
  // when the first pass ends. The gate parks the dispatcher there until
  // both models' next sub-batches are queued, so the next pass must
  // coalesce both — deterministically, however slowly a loaded machine
  // schedules the engine workers. The pass overhead gives pacing a cost
  // the utilization check below can see.
  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.pass_overhead_us = 20'000;
  testing::ChunkGate gate;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  const auto opener = gate.open_on_exit();
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);

  util::Rng rng{513};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.submit("a", random_image(rng)));
    futures.push_back(server.submit("b", random_image(rng)));
  }
  auto event = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(event.has_value());
  while (event->remaining_samples > 0) {  // walk to the end of the pass
    gate.release();
    event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value());
  }
  ASSERT_TRUE(testing::await_device_lane(*pu, "a"));
  ASSERT_TRUE(testing::await_device_lane(*pu, "b"));
  gate.open();
  for (auto& future : futures) {
    ASSERT_TRUE(ok(future.get().status));
  }
  server.shutdown();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GE(snapshot.cobatched_passes, 1u)
      << "no pass ever mixed the two models";
  // Paced utilization can never exceed the wall window.
  EXPECT_LE(snapshot.utilization, 1.05);
}

TEST(SharedDevice, GeometryMismatchFallsBackToSerializedPasses) {
  const hw::QNetDesc qnet_a = make_test_qnet(521, 16);
  const hw::QNetDesc qnet_b = make_test_qnet(522, 8);

  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.pass_overhead_us = 10'000;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config_a = small_config(16);
  config_a.placement = {DeviceSpec::on(pu)};
  DeployConfig config_b = small_config(8);
  config_b.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config_a);
  server.deploy("b", {qnet_b}, config_b);

  util::Rng rng{523};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit("a", random_image(rng, 16)));
    futures.push_back(server.submit("b", random_image(rng, 8)));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(ok(future.get().status));
  }
  server.shutdown();
  // Shapes never aligned, so no pass may mix the models.
  EXPECT_EQ(pu->snapshot().cobatched_passes, 0u);
}

TEST(SharedDevice, TimeSlicedBaselineRunsOneSubBatchPerPass) {
  const hw::QNetDesc qnet_a = make_test_qnet(531);
  const hw::QNetDesc qnet_b = make_test_qnet(532);

  SharedDeviceConfig pu_config;
  pu_config.cobatch = false;  // the ablation baseline
  pu_config.paced = false;
  pu_config.model_switch_us = 50.0;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);

  util::Rng rng{533};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("a", random_image(rng)));
    futures.push_back(server.submit("b", random_image(rng)));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(ok(future.get().status));
  }
  server.shutdown();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.cobatched_passes, 0u);
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  // One sub-batch per pass, by definition of time slicing.
  EXPECT_EQ(snapshot.passes, snapshot.tenants[0].sub_batches +
                                 snapshot.tenants[1].sub_batches);
  // Interleaved tenants force weight reloads; the switch accounting must
  // see them.
  EXPECT_GE(snapshot.model_switches, 2u);
  EXPECT_GT(snapshot.switch_us, 0.0);
}

// ---- aggregate backlog: admission + routing ---------------------------------

TEST(SharedDevice, NeighbourBacklogShedsIdleTenantsBatchWork) {
  const hw::QNetDesc qnet_a = make_test_qnet(541);
  const hw::QNetDesc qnet_b = make_test_qnet(542);

  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  // Scale the modeled clock so one sample costs ~1ms on the PU: the flood
  // below then represents tens of milliseconds of committed device time.
  {
    ModelServer probe;
    DeployConfig probe_config = small_config();
    probe.deploy("p", {qnet_a}, probe_config);
    const double native_us = probe.engine("p")->simulated_sample_us();
    probe.shutdown();
    config.accel.clock_hz *= native_us / 1000.0;
  }
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);

  // Flood model B with deadline-less batch work (never shed, admits all).
  util::Rng rng{543};
  SubmitOptions flood;
  flood.priority = Priority::kBatch;
  flood.deadline_us = 0;
  std::vector<std::future<Response>> backlog;
  for (int i = 0; i < 48; ++i) {
    backlog.push_back(server.submit("b", random_image(rng), flood));
  }

  // Model A is idle, but its device is not: estimated delay must count B's
  // committed work, and a tight-budget kBatch submit to A must shed.
  EXPECT_GT(server.engine("a")->estimated_queue_delay_us(), 10'000.0);
  SubmitOptions tight;
  tight.priority = Priority::kBatch;
  tight.deadline_us = util::Stopwatch::now_us() + 5'000;
  const Response shed = server.submit("a", random_image(rng), tight).get();
  EXPECT_EQ(shed.status, StatusCode::kShedded);

  // Interactive traffic is never shed, even on a contended device.
  const Response served = server.submit("a", random_image(rng)).get();
  EXPECT_TRUE(ok(served.status));

  for (auto& future : backlog) EXPECT_TRUE(ok(future.get().status));
  server.shutdown();
}

// Each tenant's committed work is priced once, from its engine's own
// outstanding counts, by committed_delay_us(n, s, 0) — so every
// estimate is exact, not merely large.
TEST(SharedDevice, CrossTenantBacklogIsEachNeighboursCommittedWork) {
  const hw::QNetDesc qnet_a = make_test_qnet(545);
  const hw::QNetDesc qnet_b = make_test_qnet(546);

  ModelServer server;
  DeployConfig config = small_config();
  // Park batch formation: the one worker claims the first request and
  // waits seconds for more, so every submit below stays outstanding. Both
  // models deploy on the one parking PU the config names.
  config.workers = 1;
  config = testing::parked(config, 10'000'000);
  const std::shared_ptr<SharedDevice> pu = config.device.shared;
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);
  const std::shared_ptr<InferenceEngine> engine_a = server.engine("a");
  std::shared_ptr<InferenceEngine> engine_b = server.engine("b");
  const double sample_a = engine_a->simulated_sample_us();
  const double sample_b = engine_b->simulated_sample_us();

  constexpr std::size_t kA = 3;
  constexpr std::size_t kB = 7;
  util::Rng rng{547};
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kA; ++i) {
    futures.push_back(server.submit("a", random_image(rng)));
  }
  for (std::size_t i = 0; i < kB; ++i) {
    futures.push_back(server.submit("b", random_image(rng)));
  }

  const double work_a = static_cast<double>(kA) * sample_a;
  const double work_b = static_cast<double>(kB) * sample_b;
  EXPECT_DOUBLE_EQ(
      engine_a->estimated_queue_delay_us(),
      analysis::committed_delay_us(static_cast<double>(kA), sample_a, work_b));
  EXPECT_DOUBLE_EQ(
      engine_b->estimated_queue_delay_us(),
      analysis::committed_delay_us(static_cast<double>(kB), sample_b, work_a));
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(snapshot.tenants[0].pending_us, work_a);
  EXPECT_DOUBLE_EQ(snapshot.tenants[1].pending_us, work_b);

  // Undeploying b drains and releases its tenant: its work leaves a's
  // estimate and its frozen row.
  engine_b.reset();
  ASSERT_TRUE(server.undeploy("b"));
  EXPECT_DOUBLE_EQ(engine_a->backend().cross_tenant_backlog_us(), 0.0);
  EXPECT_DOUBLE_EQ(engine_a->estimated_queue_delay_us(), work_a);
  EXPECT_DOUBLE_EQ(pu->snapshot().tenants[1].pending_us, 0.0);

  server.shutdown();
  for (auto& future : futures) EXPECT_TRUE(ok(future.get().status));
}

// ---- batch window -----------------------------------------------------------

// A tenant's per-batch fixed cost is what a pass pays once for all its
// riders: the tenant's weight reload plus the PU's pass overhead.
TEST(SharedDevice, BatchFixedCostIsSwitchPlusPassOverhead) {
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.pass_overhead_us = 37.5;  // reload derived from the weights
  auto pu = SharedDevice::create({}, pu_config);
  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("m", {make_test_qnet(561)}, config);
  const std::shared_ptr<InferenceEngine> engine = server.engine("m");
  const auto* backend =
      dynamic_cast<const SharedDeviceBackend*>(&engine->backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_GT(backend->switch_us(), 0.0);
  EXPECT_DOUBLE_EQ(backend->batch_fixed_us(), backend->switch_us() + 37.5);
  // The tiny net reloads in well under its 500 us max_wait_us, so the
  // engine holds a batch only as long as the pass's fixed cost.
  EXPECT_EQ(engine->batch_window_us(),
            static_cast<std::int64_t>(std::ceil(backend->batch_fixed_us())));
  EXPECT_LT(engine->batch_window_us(), config.max_wait_us);
  server.shutdown();
}

// The shared_pu_flood benchmark's tenants (perfbench/main.cpp): a
// 2,500 us reload outprices their 500 us max_wait_us, so they keep the
// full window.
TEST(SharedDevice, TenantWhoseSwitchOutpricesMaxWaitKeepsIt) {
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.model_switch_us = 2500.0;
  pu_config.preempt_granularity_us = 10'000.0;
  auto pu = SharedDevice::create({}, pu_config);
  ModelServer server;
  DeployConfig config = small_config();
  config.max_wait_us = 500;
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {make_test_qnet(562)}, config);
  server.deploy("b", {make_test_qnet(563)}, config);
  EXPECT_EQ(server.engine("a")->batch_window_us(), 500);
  EXPECT_EQ(server.engine("b")->batch_window_us(), 500);
  server.shutdown();
}

// ---- stats rows -------------------------------------------------------------

TEST(SharedDevice, CoLocatedReplicaRowsMergePerPhysicalDevice) {
  const hw::QNetDesc qnet = make_test_qnet(551);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  // Two replicas of one model, both tenants of the same PU.
  config.placement = {DeviceSpec::on(pu), DeviceSpec::on(pu)};
  server.deploy("m", {qnet}, config);
  EXPECT_EQ(pu->tenant_count(), 2u);

  util::Rng rng{552};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  for (auto& future : futures) ASSERT_TRUE(ok(future.get().status));

  const StatsSnapshot snapshot = server.stats("m");
  // One *physical* device -> one row, with both replicas merged; the row's
  // busy time is the device's, so utilization cannot read 2 x 100%.
  ASSERT_EQ(snapshot.devices.size(), 1u);
  EXPECT_EQ(snapshot.devices[0].device, "shared-pu");
  EXPECT_EQ(snapshot.devices[0].model, "m");
  EXPECT_TRUE(snapshot.devices[0].shared);
  EXPECT_EQ(snapshot.devices[0].merged_replicas, 2u);
  EXPECT_EQ(snapshot.devices[0].completed, 24u);
  const std::string table = server.stats_table("m");
  EXPECT_NE(table.find("(shared)"), std::string::npos);

  // The set's provisioning counts the PU once, not per tenant.
  EXPECT_DOUBLE_EQ(server.replica_set("m")->total_speed(), 1.0);
  server.shutdown();

  // The device's own cross-model snapshot has one row per tenant.
  const SharedDeviceSnapshot device = pu->snapshot();
  ASSERT_EQ(device.tenants.size(), 2u);
  EXPECT_EQ(device.tenants[0].samples + device.tenants[1].samples, 24u);
}

TEST(SharedDevice, MixedPlacementKeepsDedicatedRowsSeparate) {
  const hw::QNetDesc qnet = make_test_qnet(561);
  auto pu = SharedDevice::create({}, {.paced = false});

  ModelServer server;
  DeployConfig config = small_config();
  DeviceSpec dedicated;
  dedicated.name = "npu-private";
  dedicated.speed_factor = 2.0;
  config.placement = {DeviceSpec::on(pu), dedicated};
  server.deploy("m", {qnet}, config);

  util::Rng rng{562};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  for (auto& future : futures) ASSERT_TRUE(ok(future.get().status));

  const StatsSnapshot snapshot = server.stats("m");
  ASSERT_EQ(snapshot.devices.size(), 2u);
  EXPECT_TRUE(snapshot.devices[0].shared);
  EXPECT_EQ(snapshot.devices[0].merged_replicas, 1u);
  EXPECT_FALSE(snapshot.devices[1].shared);
  EXPECT_EQ(snapshot.devices[1].device, "npu-private");
  // {shared 1x, dedicated 2x} provisions 3 baseline devices' worth.
  EXPECT_DOUBLE_EQ(server.replica_set("m")->total_speed(), 3.0);
  server.shutdown();
}

// ---- tenant lifecycle storms ------------------------------------------------

TEST(SharedDevice, UndeployOneTenantWhileAnotherKeepsSubmitting) {
  const hw::QNetDesc qnet_a = make_test_qnet(581);
  const hw::QNetDesc qnet_b = make_test_qnet(582);
  auto pu = SharedDevice::create({}, {.paced = false});

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("stayer", {qnet_a}, config);

  // The staying tenant submits continuously from its own thread; every one
  // of its requests must be served, before, during, and after the
  // neighbour's churn.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stayer_ok{0};
  std::thread stayer([&] {
    util::Rng rng{583};
    while (!stop.load(std::memory_order_acquire)) {
      const Response response =
          server.submit("stayer", random_image(rng)).get();
      EXPECT_TRUE(ok(response.status)) << response.detail;
      stayer_ok.fetch_add(1, std::memory_order_relaxed);
    }
  });

  util::Rng rng{584};
  for (int round = 0; round < 4; ++round) {
    server.deploy("churner", {qnet_b}, config);
    std::vector<std::future<Response>> in_flight;
    for (int i = 0; i < 12; ++i) {
      in_flight.push_back(server.submit("churner", random_image(rng)));
    }
    // Undeploy concurrently with the submissions still in flight: only the
    // churner's batches drain; the stayer must never observe a failure.
    std::thread undeployer([&] { server.undeploy("churner"); });
    std::vector<std::future<Response>> racing;
    for (int i = 0; i < 12; ++i) {
      racing.push_back(server.submit("churner", random_image(rng)));
    }
    undeployer.join();
    for (auto& future : in_flight) {
      const Response response = future.get();
      // Accepted before the undeploy: the drain serves it.
      EXPECT_TRUE(ok(response.status)) << status_name(response.status);
    }
    for (auto& future : racing) {
      const Response response = future.get();
      // Racing the undeploy: served, or cleanly refused — never hung,
      // never a crash.
      EXPECT_TRUE(ok(response.status) ||
                  response.status == StatusCode::kModelNotFound ||
                  response.status == StatusCode::kShuttingDown)
          << status_name(response.status);
    }
  }

  stop.store(true, std::memory_order_release);
  stayer.join();
  EXPECT_GT(stayer_ok.load(), 0u);
  // One stayer + 4 churner generations attached over the device's life.
  EXPECT_EQ(pu->tenant_count(), 5u);

  // The stayer still serves after all the churn.
  const Response after = server.submit("stayer", random_image(rng)).get();
  EXPECT_TRUE(ok(after.status));
  server.shutdown();
}

}  // namespace
}  // namespace mfdfp::serve
