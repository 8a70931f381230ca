// ModelServer front-door properties: multi-model deployment (deploy /
// hot-redeploy / undeploy with drain), name-based routing with typed
// kModelNotFound, admission control shedding kBatch traffic under overload,
// response identity stamping, and the stats near-zero-window guard.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "nn/zoo.hpp"
#include "serve_test_util.hpp"
#include "util/stopwatch.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

hw::QNetDesc make_test_qnet(std::uint64_t seed, bool conv_net) {
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

DeployConfig small_deploy_config() {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.max_batch = 4;
  config.max_wait_us = 1000;
  config.workers = 2;
  return config;
}

Tensor random_image(util::Rng& rng) {
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

TEST(ModelServer, ServesTwoModelsConcurrentlyBitIdentical) {
  const hw::QNetDesc single = make_test_qnet(201, true);
  const hw::QNetDesc member_a = make_test_qnet(202, false);
  const hw::QNetDesc member_b = make_test_qnet(203, false);
  const hw::AcceleratorExecutor ref_single(single);
  const hw::AcceleratorExecutor ref_a(member_a), ref_b(member_b);
  const std::vector<const hw::AcceleratorExecutor*> ref_members{&ref_a,
                                                                &ref_b};

  ModelServer server;
  const ModelHandle cnn =
      server.deploy("cnn", {single}, small_deploy_config());
  const ModelHandle ens =
      server.deploy("ens", {member_a, member_b}, small_deploy_config());
  EXPECT_EQ(cnn.version, 1u);
  EXPECT_EQ(ens.version, 1u);
  EXPECT_EQ(server.model_count(), 2u);
  EXPECT_EQ(server.engine("ens")->member_count(), 2u);

  util::Rng rng{204};
  Tensor images{Shape{12, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  // Interleave submissions across both models and both priority classes.
  std::vector<std::future<Response>> cnn_futures, ens_futures;
  for (std::size_t i = 0; i < images.shape().n(); ++i) {
    SubmitOptions options;
    options.priority =
        i % 2 == 0 ? Priority::kInteractive : Priority::kBatch;
    cnn_futures.push_back(server.submit(
        "cnn", tensor::slice_outer(images, i, i + 1), options));
    ens_futures.push_back(server.submit(
        "ens", tensor::slice_outer(images, i, i + 1), options));
  }
  for (std::size_t i = 0; i < images.shape().n(); ++i) {
    const Tensor sample = tensor::slice_outer(images, i, i + 1);

    Response cnn_response = cnn_futures[i].get();
    ASSERT_TRUE(ok(cnn_response.status)) << cnn_response.detail;
    EXPECT_EQ(cnn_response.model, "cnn");
    EXPECT_EQ(cnn_response.model_version, 1u);
    EXPECT_EQ(
        tensor::max_abs_diff(cnn_response.logits, ref_single.run(sample)),
        0.0f);

    Response ens_response = ens_futures[i].get();
    ASSERT_TRUE(ok(ens_response.status)) << ens_response.detail;
    EXPECT_EQ(ens_response.model, "ens");
    EXPECT_EQ(tensor::max_abs_diff(ens_response.logits,
                                   hw::run_ensemble(ref_members, sample)),
              0.0f);
  }
  EXPECT_EQ(server.stats("cnn").completed, 12u);
  EXPECT_EQ(server.stats("ens").completed, 12u);
}

TEST(ModelServer, UnknownModelResolvesModelNotFound) {
  ModelServer server;
  server.deploy("cnn", {make_test_qnet(211, false)}, small_deploy_config());

  util::Rng rng{212};
  SubmitOptions options;
  options.priority = Priority::kBatch;
  const Response response =
      server.submit("nope", random_image(rng), options).get();
  EXPECT_EQ(response.status, StatusCode::kModelNotFound);
  EXPECT_NE(response.detail.find("nope"), std::string::npos);
  EXPECT_EQ(response.priority, Priority::kBatch)
      << "pre-dispatch failures must stamp the submitter's class";
  EXPECT_EQ(server.not_found_count(), 1u);
}

TEST(ModelServer, RedeployBumpsVersionAndDrainsOldEngine) {
  ModelServer server;
  // Park v1's workers in a long coalescing wait so requests are still
  // in flight when the redeploy lands.
  server.deploy("m", {make_test_qnet(221, false)},
                testing::parked(small_deploy_config()));

  util::Rng rng{222};
  std::vector<std::future<Response>> v1_futures;
  for (int i = 0; i < 6; ++i) {
    v1_futures.push_back(server.submit("m", random_image(rng)));
  }

  const ModelHandle v2 =
      server.deploy("m", {make_test_qnet(223, false)},
                    small_deploy_config());
  EXPECT_EQ(v2.version, 2u);

  // Hot redeploy drained v1: its in-flight requests completed (stamped v1).
  for (auto& future : v1_futures) {
    const Response response = future.get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    EXPECT_EQ(response.model_version, 1u);
  }
  // New traffic lands on v2.
  const Response v2_response = server.submit("m", random_image(rng)).get();
  ASSERT_TRUE(ok(v2_response.status)) << v2_response.detail;
  EXPECT_EQ(v2_response.model_version, 2u);

  // Undeploy + fresh deploy keeps the version monotonic (no reuse of 1).
  EXPECT_TRUE(server.undeploy("m"));
  EXPECT_FALSE(server.undeploy("m"));
  const ModelHandle v3 =
      server.deploy("m", {make_test_qnet(224, false)},
                    small_deploy_config());
  EXPECT_EQ(v3.version, 3u);
}

TEST(ModelServer,
     ConcurrentSameNameDeploysGetDistinctVersionsAndTheNewestServes) {
  // deploy() holds the lifecycle lock from version reservation to the
  // swap, so same-name deploys publish in version order: each one replaces
  // an older version, and the last to publish is the highest.
  constexpr std::uint32_t kDeploys = 4;
  const hw::QNetDesc qnet = make_test_qnet(225, false);
  ModelServer server;
  std::vector<std::uint32_t> versions(kDeploys, 0);
  std::vector<std::thread> deployers;
  for (std::uint32_t i = 0; i < kDeploys; ++i) {
    deployers.emplace_back([&server, &qnet, &versions, i] {
      versions[i] =
          server.deploy("m", {qnet}, small_deploy_config()).version;
    });
  }
  for (std::thread& deployer : deployers) deployer.join();

  std::sort(versions.begin(), versions.end());
  for (std::uint32_t i = 0; i < kDeploys; ++i) {
    EXPECT_EQ(versions[i], i + 1);
  }
  EXPECT_EQ(server.model_count(), 1u);
  util::Rng rng{226};
  const Response response = server.submit("m", random_image(rng)).get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(response.model_version, kDeploys);
}

TEST(ModelServer, UndeployDrainsInFlightRequests) {
  ModelServer server;
  server.deploy("m", {make_test_qnet(231, false)},
                testing::parked(small_deploy_config()));

  util::Rng rng{232};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  EXPECT_TRUE(server.undeploy("m"));
  for (auto& future : futures) {
    EXPECT_TRUE(ok(future.get().status)) << "undeploy must drain, not drop";
  }
  const Response after = server.submit("m", random_image(rng)).get();
  EXPECT_EQ(after.status, StatusCode::kModelNotFound);
}

TEST(ModelServer, ShutdownDrainsAndRejectsFurtherWork) {
  ModelServer server;
  server.deploy("m", {make_test_qnet(241, false)}, small_deploy_config());
  util::Rng rng{242};
  auto future = server.submit("m", random_image(rng));
  server.shutdown();
  EXPECT_TRUE(ok(future.get().status));

  const Response rejected = server.submit("m", random_image(rng)).get();
  EXPECT_EQ(rejected.status, StatusCode::kShuttingDown);
  EXPECT_THROW(
      server.deploy("late", {make_test_qnet(243, false)},
                    small_deploy_config()),
      std::logic_error);
  server.shutdown();  // idempotent
}

TEST(ModelServer, AdmissionControlShedsOnlyBatchTraffic) {
  ModelServer server;
  // Conv net: its per-sample simulated cost is large enough that a backlog
  // of a few hundred requests already exceeds a multi-ms deadline budget.
  const hw::QNetDesc qnet = make_test_qnet(251, true);
  DeployConfig config = small_deploy_config();
  config.workers = 1;
  config.queue_capacity = 8192;
  config.admission_control = true;
  config = testing::parked(config);
  server.deploy("m", {qnet}, config);

  // The shed candidate's budget is generous in wall-clock terms (so a slow
  // run — e.g. under TSan — cannot expire it between computing the deadline
  // and the submit) but well below the estimated queue delay of the backlog
  // we build: depth x per-sample simulated cost >= 3x the budget. Size the
  // backlog from the deployed model's per-sample cost, then hot-redeploy
  // with max_batch above it so the lone worker parks in the coalescing wait
  // and the backlog stays put while the candidates are evaluated.
  const std::int64_t tight_budget_us = 2000;
  const double sample_us = server.engine("m")->simulated_sample_us();
  ASSERT_GT(sample_us, 0.0);
  const std::size_t backlog_depth =
      static_cast<std::size_t>(3.0 * static_cast<double>(tight_budget_us) /
                               sample_us) + 8;
  // kBatch can only use capacity minus the interactive reserve (1/8).
  ASSERT_LT(backlog_depth, config.queue_capacity - config.queue_capacity / 8);
  config.max_batch = backlog_depth + 64;
  server.deploy("m", {qnet}, config);  // hot redeploy, same members
  const auto engine = server.engine("m");

  util::Rng rng{252};
  // Backlog of deadline-less batch traffic (infinite budget, never shed).
  std::vector<std::future<Response>> backlog;
  for (std::size_t i = 0; i < backlog_depth; ++i) {
    SubmitOptions options;
    options.priority = Priority::kBatch;
    options.deadline_us = 0;
    backlog.push_back(server.submit("m", random_image(rng), options));
  }
  // The worker popped at most one request into its forming batch, so the
  // estimated delay stays >= ~3x the candidate's budget.
  ASSERT_GE(engine->queue_depth(), backlog_depth - 1);

  SubmitOptions batch_options;
  batch_options.priority = Priority::kBatch;
  batch_options.deadline_us = util::Stopwatch::now_us() + tight_budget_us;
  const Response shed =
      server.submit("m", random_image(rng), batch_options).get();
  EXPECT_EQ(shed.status, StatusCode::kShedded);

  // Same budget, interactive class: never shed (it may time out later, but
  // admission control must not refuse it).
  SubmitOptions interactive_options;
  interactive_options.priority = Priority::kInteractive;
  interactive_options.deadline_us =
      util::Stopwatch::now_us() + tight_budget_us;
  auto interactive_future =
      server.submit("m", random_image(rng), interactive_options);

  const StatsSnapshot stats = server.stats("m");
  EXPECT_EQ(stats.shedded, 1u);
  EXPECT_EQ(stats.rejected, 0u);

  server.shutdown();  // close the coalescing wait, drain everything
  for (auto& future : backlog) {
    EXPECT_TRUE(ok(future.get().status));
  }
  (void)interactive_future.get();  // resolved (served or timed out), not shed
  EXPECT_EQ(server.stats("m").shedded, 0u) << "stats gone after shutdown";
}

TEST(ModelServer, DisabledAdmissionControlQueuesTightBudgetBatchWork) {
  ModelServer server;
  DeployConfig config = small_deploy_config();
  config.workers = 1;
  config.admission_control = false;
  server.deploy("m", {make_test_qnet(261, false)}, testing::parked(config));

  util::Rng rng{262};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    SubmitOptions options;
    options.priority = Priority::kBatch;
    options.deadline_us = 0;
    futures.push_back(server.submit("m", random_image(rng), options));
  }
  SubmitOptions tight;
  tight.priority = Priority::kBatch;
  tight.deadline_us = util::Stopwatch::now_us() + 1000;
  auto tight_future = server.submit("m", random_image(rng), tight);

  server.shutdown();
  const Response tight_response = tight_future.get();
  // Without admission control the request is queued and later expires at
  // batch formation — kDeadlineExceeded, never kShedded.
  EXPECT_NE(tight_response.status, StatusCode::kShedded);
  EXPECT_EQ(server.stats("m").shedded, 0u);
  for (auto& future : futures) (void)future.get();
}

TEST(ServerStats, SnapshotImmediatelyAfterClearHasFiniteRates) {
  ServerStats stats;
  stats.record_response(120, 40, Priority::kInteractive);
  stats.record_batch(1, 55.0, 1e4);
  stats.clear();
  // Snapshot in the same microsecond as clear(): the observation window is
  // ~0 s, and the rate divisions must report 0, not inf/NaN.
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_TRUE(std::isfinite(snap.throughput_rps));
  EXPECT_TRUE(std::isfinite(snap.sim_accel_utilization));
  EXPECT_EQ(snap.throughput_rps, 0.0);
  EXPECT_EQ(snap.sim_accel_utilization, 0.0);
  EXPECT_EQ(snap.completed, 0u);
}

TEST(ServerStats, TracksPerPriorityTailsAndSheds) {
  ServerStats stats;
  for (int i = 0; i < 10; ++i) {
    stats.record_response(100 + i, 10, Priority::kInteractive);
    stats.record_response(10'000 + i, 10, Priority::kBatch);
  }
  stats.record_shedded();
  stats.record_shedded();
  const StatsSnapshot snap = stats.snapshot();
  const std::size_t interactive =
      static_cast<std::size_t>(Priority::kInteractive);
  const std::size_t batch = static_cast<std::size_t>(Priority::kBatch);
  EXPECT_EQ(snap.completed_by_class[interactive], 10u);
  EXPECT_EQ(snap.completed_by_class[batch], 10u);
  EXPECT_LT(snap.e2e_p99_us_by_class[interactive],
            snap.e2e_p99_us_by_class[batch]);
  EXPECT_EQ(snap.shedded, 2u);
}

TEST(ModelServer, ExportMetricsCoversEveryDeployedModel) {
  ModelServer server;
  server.deploy("alpha", {make_test_qnet(31, false)}, small_deploy_config());
  server.deploy("beta", {make_test_qnet(32, true)}, small_deploy_config());

  util::Rng rng{5};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit("alpha", random_image(rng)));
    futures.push_back(server.submit("beta", random_image(rng)));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, StatusCode::kOk);
  }

  const std::string metrics = server.export_metrics();
  // Prometheus exposition headers.
  EXPECT_NE(metrics.find("# HELP mfdfp_requests_completed_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE mfdfp_requests_completed_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE mfdfp_throughput_rps gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE mfdfp_e2e_latency_us summary"),
            std::string::npos);
  // One series per model, and the right values for the counters.
  EXPECT_NE(metrics.find("mfdfp_requests_completed_total{model=\"alpha\"} 4"),
            std::string::npos);
  EXPECT_NE(metrics.find("mfdfp_requests_completed_total{model=\"beta\"} 4"),
            std::string::npos);
  // Summary series carry quantiles plus _sum/_count.
  EXPECT_NE(
      metrics.find("mfdfp_e2e_latency_us{model=\"alpha\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(metrics.find("mfdfp_e2e_latency_us_count{model=\"alpha\"} 4"),
            std::string::npos);
  EXPECT_NE(metrics.find("mfdfp_e2e_latency_us_sum{model=\"alpha\"}"),
            std::string::npos);
  // Live per-lane gauges exist for both lanes of both models.
  for (const char* model : {"alpha", "beta"}) {
    for (const char* lane : {"interactive", "batch"}) {
      const std::string series = std::string("mfdfp_queue_depth{model=\"") +
                                 model + "\",lane=\"" + lane + "\"}";
      EXPECT_NE(metrics.find(series), std::string::npos) << series;
    }
  }
  // Per-device rows.
  EXPECT_NE(metrics.find("mfdfp_device_completed_total{model=\"alpha\""),
            std::string::npos);

  // Undeployed models drop out of the next scrape.
  server.undeploy("beta");
  const std::string after = server.export_metrics();
  EXPECT_EQ(after.find("model=\"beta\""), std::string::npos);
  EXPECT_NE(after.find("model=\"alpha\""), std::string::npos);
}

TEST(ModelServer, ExportMetricsOnAnEmptyServerIsWellFormed) {
  ModelServer server;
  const std::string metrics = server.export_metrics();
  // Family headers render; no model series do.
  EXPECT_NE(metrics.find("# TYPE mfdfp_requests_completed_total counter"),
            std::string::npos);
  EXPECT_EQ(metrics.find("model=\""), std::string::npos);
}

TEST(ModelServer, LiveLaneGaugesTrackParkedWork) {
  ModelServer server;
  DeployConfig config = small_deploy_config();
  // Park the worker in a long coalescing wait so submissions stay
  // outstanding and the gauges are deterministic.
  config.workers = 1;
  server.deploy("parked", {make_test_qnet(33, false)},
                testing::parked(config));

  util::Rng rng{6};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit("parked", random_image(rng)));
  }

  // All three accepted, none resolved: the interactive lane owes 3.
  const std::shared_ptr<ReplicaSet> set = server.replica_set("parked");
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->outstanding(Priority::kInteractive), 3u);
  EXPECT_EQ(set->outstanding(Priority::kBatch), 0u);

  const StatsSnapshot snap = server.stats("parked");
  EXPECT_TRUE(snap.live_gauges);
  const std::size_t interactive =
      static_cast<std::size_t>(Priority::kInteractive);
  EXPECT_EQ(snap.outstanding_now[interactive], 3u);

  // Both render paths carry the gauges: the stats table...
  const std::string table = server.stats_table("parked");
  EXPECT_NE(table.find("interactive queued/outstanding now"),
            std::string::npos);
  EXPECT_NE(table.find("batch queued/outstanding now"), std::string::npos);
  // ...and the Prometheus dump.
  const std::string metrics = server.export_metrics();
  EXPECT_NE(
      metrics.find(
          "mfdfp_outstanding_requests{model=\"parked\",lane=\"interactive\"} 3"),
      std::string::npos)
      << metrics;

  server.shutdown();  // drains; every parked future resolves
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, StatusCode::kOk);
  }
  EXPECT_EQ(set->outstanding(Priority::kInteractive), 0u);
}

}  // namespace
}  // namespace mfdfp::serve
