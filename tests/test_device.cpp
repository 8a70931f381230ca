// Device-aware execution backend: DeviceSpec provisioning (speed_factor
// scaling the cycle model, per-device worker/batch/queue overrides), the
// ExecutionBackend seam the engine submits prepared batches through
// (including injected stub backends), heterogeneous DeployConfig.placement
// behind one ReplicaSet, normalized-work vs speed-blind routing, and the
// per-device stats rows. The whole file must run clean under
// ThreadSanitizer and ASan+UBSan (see ci.yml).
#include "serve/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "hw/cycle_model.hpp"
#include "hw/traffic_model.hpp"
#include "nn/zoo.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

hw::QNetDesc make_test_qnet(std::uint64_t seed, bool conv_net = false) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = conv_net ? nn::make_cifar10_net(config, rng)
                             : nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

DeployConfig small_config() {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.max_batch = 4;
  config.max_wait_us = 1000;
  config.workers = 1;
  return config;
}

/// Workers parked in a long coalescing wait: submissions stay outstanding,
/// so routing decisions are observable instead of racing the drain.
DeployConfig parked_config() {
  DeployConfig config = small_config();
  config.max_batch = 256;
  config.max_wait_us = 300'000;
  return config;
}

Tensor random_image(util::Rng& rng) {
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

DeviceSpec make_device(std::string name, double speed) {
  DeviceSpec device;
  device.name = std::move(name);
  device.speed_factor = speed;
  return device;
}

/// The calling thread's timer slack in ns (Linux), or -1 elsewhere.
long thread_timer_slack_ns() {
#ifdef __linux__
  return static_cast<long>(prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL));
#else
  return -1;
#endif
}

// ---- SimulatedAcceleratorBackend -------------------------------------------

TEST(SimulatedBackend, SpeedFactorScalesLatencyNotDma) {
  const hw::QNetDesc qnet = make_test_qnet(401);
  const hw::AcceleratorConfig accel;
  const SimulatedAcceleratorBackend base({qnet}, accel,
                                         make_device("base", 1.0), 3, 16, 16);
  const SimulatedAcceleratorBackend fast({qnet}, accel,
                                         make_device("fast", 2.0), 3, 16, 16);

  ASSERT_GT(base.sample_us(), 0.0);
  // A 2x device finishes the same cycle count in half the modeled time.
  EXPECT_DOUBLE_EQ(fast.sample_us(), base.sample_us() / 2.0);
  // DMA is not speed-scaled: provisioning buys compute, and the modeled
  // transfers are double-buffered behind it.
  EXPECT_DOUBLE_EQ(fast.batch_dma_bytes(8), base.batch_dma_bytes(8));
}

TEST(SimulatedBackend, ExecuteIsBitIdenticalAndPricesTheBatch) {
  const hw::QNetDesc qnet = make_test_qnet(402);
  const hw::AcceleratorExecutor reference(qnet);
  const SimulatedAcceleratorBackend backend(
      {qnet}, hw::AcceleratorConfig{}, make_device("npu", 4.0), 3, 16, 16);

  util::Rng rng{403};
  Tensor images{Shape{5, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  hw::ExecScratch scratch;
  const BatchResult result = backend.execute(images, scratch, ExecHints{});
  for (std::size_t i = 0; i < images.shape().n(); ++i) {
    const Tensor sample = tensor::slice_outer(images, i, i + 1);
    EXPECT_EQ(tensor::max_abs_diff(tensor::slice_outer(result.logits, i, i + 1),
                                   reference.run(sample)),
              0.0f);
  }
  // Batch latency is sequential samples on one processing unit.
  EXPECT_DOUBLE_EQ(result.sim_accel_us, 5.0 * backend.sample_us());
  EXPECT_DOUBLE_EQ(result.sim_dma_bytes, backend.batch_dma_bytes(5));
}

TEST(SimulatedAcceleratorBackend, PricesExactlyFromTheCycleAndTrafficModels) {
  // Two members of different cost, so the max (latency: members run on
  // parallel PUs) and the sum (DMA) are both distinguishable.
  const std::vector<hw::QNetDesc> members{make_test_qnet(405),
                                          make_test_qnet(406, true)};
  const hw::AcceleratorConfig accel;
  for (const double speed : {1.0, 2.5}) {
    const SimulatedAcceleratorBackend backend(
        members, accel, make_device("npu", speed), 3, 16, 16);

    std::vector<double> member_us;
    double weight_bytes = 0.0;
    double act_bytes = 0.0;
    for (const hw::QNetDesc& desc : members) {
      const std::vector<hw::LayerWork> work =
          hw::workload_from_qnet(desc, 3, 16, 16);
      member_us.push_back(
          hw::count_cycles(work, accel).microseconds(accel, speed));
      const hw::TrafficReport traffic = hw::dma_traffic(work, accel);
      for (const hw::LayerTraffic& layer : traffic.layers) {
        weight_bytes += static_cast<double>(layer.weight_bytes);
        act_bytes +=
            static_cast<double>(layer.input_bytes + layer.output_bytes);
      }
    }
    ASSERT_NE(member_us[0], member_us[1]);
    EXPECT_EQ(backend.sample_us(),
              *std::max_element(member_us.begin(), member_us.end()))
        << "speed " << speed;
    for (const std::size_t batch : {1u, 7u}) {
      EXPECT_EQ(backend.batch_dma_bytes(batch),
                weight_bytes + static_cast<double>(batch) * act_bytes)
          << "speed " << speed << ", batch " << batch;
    }
  }
}

TEST(SimulatedBackend, RejectsInvalidDeviceAndEmptyMembers) {
  const hw::QNetDesc qnet = make_test_qnet(404);
  EXPECT_THROW(SimulatedAcceleratorBackend({qnet}, hw::AcceleratorConfig{},
                                           make_device("bad", 0.0), 3, 16, 16),
               std::invalid_argument);
  EXPECT_THROW(SimulatedAcceleratorBackend({}, hw::AcceleratorConfig{},
                                           make_device("ok", 1.0), 3, 16, 16),
               std::invalid_argument);
}

// ---- engine device resolution ----------------------------------------------

TEST(InferenceEngine, DeviceOverridesEngineDefaultsAndAutoNames) {
  const hw::QNetDesc qnet = make_test_qnet(411);
  DeployConfig config = small_config();
  config.workers = 4;
  config.max_batch = 8;
  config.queue_capacity = 1024;
  config.replica_index = 7;
  config.device.workers = 2;
  config.device.max_batch = 3;
  config.device.queue_capacity = 16;

  InferenceEngine engine({qnet}, config);
  // Nonzero DeviceSpec fields win over the engine defaults.
  EXPECT_EQ(engine.config().workers, 2u);
  EXPECT_EQ(engine.config().max_batch, 3u);
  EXPECT_EQ(engine.config().queue_capacity, 16u);
  // An unnamed device is auto-named from the replica index.
  EXPECT_EQ(engine.device().name, "dev7");
  EXPECT_DOUBLE_EQ(engine.device().speed_factor, 1.0);
  engine.stop();
}

TEST(InferenceEngine, SpeedFactorScalesEveryCostAccessor) {
  const hw::QNetDesc qnet = make_test_qnet(412);
  DeployConfig base = small_config();
  DeployConfig fast = small_config();
  fast.device.speed_factor = 4.0;

  InferenceEngine slow_engine({qnet}, base);
  InferenceEngine fast_engine({qnet}, fast);
  EXPECT_DOUBLE_EQ(fast_engine.simulated_sample_us(),
                   slow_engine.simulated_sample_us() / 4.0);
  EXPECT_DOUBLE_EQ(fast_engine.simulated_batch_dma_bytes(6),
                   slow_engine.simulated_batch_dma_bytes(6));
  slow_engine.stop();
  fast_engine.stop();
}

TEST(InferenceEngine, InvalidDeviceSpeedThrowsAtConstruction) {
  const hw::QNetDesc qnet = make_test_qnet(413);
  DeployConfig config = small_config();
  config.device.speed_factor = -1.0;
  EXPECT_THROW(InferenceEngine({qnet}, config), std::invalid_argument);
}

// ---- backend injection (the API seam) ---------------------------------------

/// Synthetic device: constant logits, fixed per-sample cost, an execution
/// counter — proves the engine schedules against the backend contract
/// alone, with no knowledge of what executes the batch.
class StubBackend final : public ExecutionBackend {
 public:
  StubBackend(std::size_t classes, double sample_us)
      : classes_(classes), sample_us_(sample_us) {}

  [[nodiscard]] BatchResult execute(const Tensor& stacked, hw::ExecScratch&,
                                    const ExecHints&) const override {
    const std::size_t batch_size = stacked.shape().n();
    BatchResult result;
    result.logits = Tensor{Shape{batch_size, classes_}};
    for (std::size_t i = 0; i < batch_size; ++i) {
      for (std::size_t c = 0; c < classes_; ++c) {
        // Ascending logits: argmax is always the last class.
        result.logits.data()[i * classes_ + c] = static_cast<float>(c);
      }
    }
    result.sim_accel_us = static_cast<double>(batch_size) * sample_us_;
    result.sim_dma_bytes = batch_dma_bytes(batch_size);
    executions_.fetch_add(1, std::memory_order_relaxed);
    timer_slack_ns_.store(thread_timer_slack_ns(), std::memory_order_relaxed);
    return result;
  }
  [[nodiscard]] double sample_us() const noexcept override {
    return sample_us_;
  }
  [[nodiscard]] double batch_dma_bytes(std::size_t batch_size) const override {
    return 100.0 * static_cast<double>(batch_size);
  }
  [[nodiscard]] std::size_t member_count() const noexcept override {
    return 1;
  }
  [[nodiscard]] std::uint64_t executions() const noexcept {
    return executions_.load(std::memory_order_relaxed);
  }
  /// Timer slack of the thread behind the last execute() call.
  [[nodiscard]] long timer_slack_ns() const noexcept {
    return timer_slack_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t classes_;
  double sample_us_;
  mutable std::atomic<std::uint64_t> executions_{0};
  mutable std::atomic<long> timer_slack_ns_{-1};
};

TEST(InferenceEngine, ServesThroughAnInjectedBackend) {
  auto backend = std::make_shared<StubBackend>(/*classes=*/4,
                                               /*sample_us=*/1000.0);
  DeployConfig config = small_config();
  config.device = make_device("stub-npu", 1.0);
  InferenceEngine engine(backend, config);
  EXPECT_EQ(engine.device().name, "stub-npu");
  EXPECT_DOUBLE_EQ(engine.simulated_sample_us(), 1000.0);

  util::Rng rng{421};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(engine.submit(random_image(rng)));
  }
  for (auto& future : futures) {
    const Response response = future.get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    EXPECT_EQ(response.device, "stub-npu");
    EXPECT_EQ(response.predicted_class, 3) << "stub argmax is the last class";
    EXPECT_EQ(response.logits.shape().dim(1), 4u);
    // The stats pipeline prices batches on the backend's own costs.
    EXPECT_DOUBLE_EQ(response.sim_accel_us,
                     static_cast<double>(response.batch_size) * 1000.0);
  }
  engine.stop();
  EXPECT_GT(backend->executions(), 0u);
  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_DOUBLE_EQ(stats.sim_dma_bytes, 600.0);
}

TEST(InferenceEngine, UnnamedInjectedBackendGetsAutoNamedDevice) {
  // The engine's resolved config.device is the only device record: with an
  // injected backend and an unnamed device it still carries the
  // auto-filled "dev<replica_index>" name on device() and in responses.
  auto backend = std::make_shared<StubBackend>(4, 1000.0);
  DeployConfig config = small_config();
  config.device = make_device("", 1.0);
  config.replica_index = 3;
  InferenceEngine engine(backend, config);
  EXPECT_EQ(engine.device().name, "dev3");

  util::Rng rng{425};
  const Response response = engine.submit(random_image(rng)).get();
  ASSERT_TRUE(ok(response.status));
  EXPECT_EQ(response.device, "dev3");
  engine.stop();
}

// Engine workers wait to enqueue_us + max_wait_us when they close a lone
// request's batch; with Linux's default 50 us timer slack that wait would
// overshoot, so every worker runs with 1 ns slack.
TEST(InferenceEngine, WorkersRunWithFineTimerSlack) {
#ifndef __linux__
  GTEST_SKIP() << "timer slack is a Linux per-thread setting";
#endif
  auto backend = std::make_shared<StubBackend>(4, 1000.0);
  InferenceEngine engine(backend, small_config());
  util::Rng rng{427};
  ASSERT_TRUE(ok(engine.submit(random_image(rng)).get().status));
  engine.stop();
  EXPECT_EQ(backend->timer_slack_ns(), 1);
}

// A paced shared PU's dispatcher sleeps to each chunk's modeled
// completion. The chunk hook runs on the dispatcher thread, after the
// chunk's riders are released, so the test waits for the hook itself.
TEST(SharedDevice, PacedDispatcherRunsWithFineTimerSlack) {
#ifndef __linux__
  GTEST_SKIP() << "timer slack is a Linux per-thread setting";
#endif
  std::promise<long> dispatcher_slack_ns;
  std::once_flag first_chunk;
  SharedDeviceConfig pu_config;
  pu_config.coalesce_window_us = 0;
  pu_config.paced = true;
  pu_config.chunk_hook = [&](const SharedDeviceChunkEvent&) {
    std::call_once(first_chunk, [&] {
      dispatcher_slack_ns.set_value(thread_timer_slack_ns());
    });
  };
  auto pu = SharedDevice::create(make_device("npu0", 1.0), pu_config);
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  ReplicaSet set({make_test_qnet(428)}, config);
  util::Rng rng{429};
  ASSERT_TRUE(ok(set.submit(random_image(rng)).get().status));
  std::future<long> slack = dispatcher_slack_ns.get_future();
  ASSERT_EQ(slack.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(slack.get(), 1);
  set.stop();
}

TEST(InferenceEngine, NullBackendThrows) {
  EXPECT_THROW(
      InferenceEngine(std::shared_ptr<const ExecutionBackend>{},
                      small_config()),
      std::invalid_argument);
}

// ---- heterogeneous placement -----------------------------------------------

TEST(ReplicaSet, PlacementBuildsOneReplicaPerDevice) {
  const hw::QNetDesc qnet = make_test_qnet(431);
  DeployConfig config = small_config();
  config.placement = {make_device("edge", 1.0), make_device("", 2.0),
                      make_device("dc", 4.0)};

  ReplicaSet set({qnet}, config);
  ASSERT_EQ(set.replica_count(), 3u);
  EXPECT_EQ(set.device(0).name, "edge");
  EXPECT_EQ(set.device(1).name, "dev1") << "unnamed devices auto-name";
  EXPECT_EQ(set.device(2).name, "dc");
  EXPECT_DOUBLE_EQ(set.total_speed(), 7.0);
  // Per-replica modeled costs scale with each device's provisioning.
  EXPECT_DOUBLE_EQ(set.replica(1)->simulated_sample_us(),
                   set.replica(0)->simulated_sample_us() / 2.0);
  EXPECT_DOUBLE_EQ(set.replica(2)->simulated_sample_us(),
                   set.replica(0)->simulated_sample_us() / 4.0);
  set.stop();
}

TEST(ReplicaSet, InvalidPlacementEntryRejectedAtDeploy) {
  const hw::QNetDesc qnet = make_test_qnet(432);
  DeployConfig config = small_config();
  config.placement = {make_device("ok", 1.0), make_device("bad", 0.0)};
  ModelServer server;
  EXPECT_THROW(server.deploy("m", {qnet}, config), std::invalid_argument);
  EXPECT_EQ(server.model_count(), 0u);
}

TEST(ReplicaSet, NormalizedRoutingSendsProportionalTraffic) {
  const hw::QNetDesc qnet = make_test_qnet(433);
  DeployConfig config = parked_config();
  config.placement = {make_device("slow", 1.0), make_device("fast", 4.0)};
  ReplicaSet set({qnet}, config);

  util::Rng rng{434};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(set.submit(random_image(rng)));
  }
  // Normalized-work routing balances outstanding *time*, so the 4x device
  // absorbs ~4x the requests; the final loads differ by at most one sample
  // on the slow device.
  const double slow_work = set.replica(0)->estimated_queue_delay_us();
  const double fast_work = set.replica(1)->estimated_queue_delay_us();
  EXPECT_LE(std::abs(slow_work - fast_work),
            set.replica(0)->simulated_sample_us());
  EXPECT_GE(set.replica(1)->outstanding_total(),
            3 * set.replica(0)->outstanding_total());

  set.stop();
  for (auto& future : futures) EXPECT_TRUE(ok(future.get().status));
}

TEST(ReplicaSet, SpeedBlindRoutingBalancesRawCounts) {
  const hw::QNetDesc qnet = make_test_qnet(435);
  DeployConfig config = parked_config();
  config.placement = {make_device("slow", 1.0), make_device("fast", 4.0)};
  config.routing = RoutingPolicy::kOutstandingCount;
  ReplicaSet set({qnet}, config);

  util::Rng rng{436};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(set.submit(random_image(rng)));
  }
  // The ablation baseline ignores provisioning: equal counts, 4x more
  // modeled work queued behind the slow device.
  EXPECT_EQ(set.replica(0)->outstanding_total(), 5u);
  EXPECT_EQ(set.replica(1)->outstanding_total(), 5u);
  EXPECT_GT(set.replica(0)->estimated_queue_delay_us(),
            3.0 * set.replica(1)->estimated_queue_delay_us());

  set.stop();
  for (auto& future : futures) EXPECT_TRUE(ok(future.get().status));
}

// ---- per-device stats -------------------------------------------------------

TEST(ReplicaSet, DeviceRowsReportPerDeviceUtilization) {
  const hw::QNetDesc qnet = make_test_qnet(441);
  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {make_device("npu-slow", 1.0),
                      make_device("npu-fast", 2.0)};
  server.deploy("m", {qnet}, config);

  util::Rng rng{442};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  std::set<std::string> devices_used;
  for (auto& future : futures) {
    const Response response = future.get();
    ASSERT_TRUE(ok(response.status));
    devices_used.insert(response.device);
    EXPECT_TRUE(response.device == "npu-slow" ||
                response.device == "npu-fast");
  }

  const StatsSnapshot total = server.stats("m");
  ASSERT_EQ(total.devices.size(), 2u);
  EXPECT_EQ(total.devices[0].device, "npu-slow");
  EXPECT_DOUBLE_EQ(total.devices[1].speed_factor, 2.0);
  std::uint64_t by_device = 0;
  for (const DeviceUtilizationRow& row : total.devices) {
    by_device += row.completed;
  }
  EXPECT_EQ(by_device, total.completed);

  const std::string table = server.stats_table("m");
  EXPECT_NE(table.find("devices"), std::string::npos);
  EXPECT_NE(table.find("npu-fast"), std::string::npos);
  server.shutdown();
}

}  // namespace
}  // namespace mfdfp::serve
