// ReplicaSet properties: replica-sharded deployments behind one name,
// load-aware (least-outstanding-work) routing with round-robin tie-break,
// the set-wide kBatch QoS quota, exact cross-replica stats aggregation, and
// the ModelServer lifecycle invariants under replication — hot redeploy and
// undeploy drain every replica, and the two PR-2 races (undeploy outside
// the lifecycle mutex, submit racing shutdown's registry clear) stay fixed.
// The whole file must run clean under ThreadSanitizer (see ci.yml).
#include "serve/replica_set.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "nn/zoo.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "util/stopwatch.hpp"

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

DeployConfig replica_config(std::size_t replicas) {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.max_batch = 4;
  config.max_wait_us = 1000;
  config.workers = 1;
  config.placement.assign(replicas, config.device);
  return config;
}

/// Workers parked in a long coalescing wait: submissions stay outstanding,
/// so routing decisions are observable instead of racing the drain.
DeployConfig parked_config(std::size_t replicas) {
  DeployConfig config = replica_config(replicas);
  config.max_batch = 256;
  config.max_wait_us = 300'000;
  return config;
}

Tensor random_image(util::Rng& rng) {
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

// ---- routing --------------------------------------------------------------

TEST(ReplicaSet, ReplicatedDeploymentServesBitIdenticalLogits) {
  const hw::QNetDesc qnet = make_test_qnet(301, /*conv_net=*/true);
  const hw::AcceleratorExecutor reference(qnet);

  ModelServer server;
  DeployConfig config = replica_config(3);
  const ModelHandle handle = server.deploy("m", {qnet}, config);
  EXPECT_EQ(handle.version, 1u);
  ASSERT_EQ(server.replica_set("m")->replica_count(), 3u);

  util::Rng rng{302};
  Tensor images{Shape{18, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < images.shape().n(); ++i) {
    futures.push_back(
        server.submit("m", tensor::slice_outer(images, i, i + 1)));
  }
  std::set<std::uint32_t> replicas_used;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    EXPECT_EQ(response.model, "m");
    EXPECT_LT(response.replica, 3u);
    replicas_used.insert(response.replica);
    const Tensor sample = tensor::slice_outer(images, i, i + 1);
    EXPECT_EQ(tensor::max_abs_diff(response.logits, reference.run(sample)),
              0.0f)
        << "replica " << response.replica
        << " diverged from direct execution";
  }
  EXPECT_GT(replicas_used.size(), 1u)
      << "routing never left the first replica";
  EXPECT_EQ(server.stats("m").completed, 18u)
      << "aggregated snapshot must sum across replicas";
}

TEST(ReplicaSet, RoutesToLeastLoadedReplica) {
  const hw::QNetDesc qnet = make_test_qnet(311);
  ReplicaSet set({qnet}, parked_config(2));

  util::Rng rng{312};
  // Load replica 0 directly (behind the router's back) with 4 requests.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(set.replica(0)->submit(random_image(rng)));
  }
  ASSERT_EQ(set.replica(0)->outstanding_total(), 4u);
  ASSERT_EQ(set.replica(1)->outstanding_total(), 0u);

  // Routed submissions must all land on the idle replica until the loads
  // equalize.
  for (int i = 0; i < 4; ++i) {
    futures.push_back(set.submit(random_image(rng)));
    EXPECT_EQ(set.replica(0)->outstanding_total(), 4u);
    EXPECT_EQ(set.replica(1)->outstanding_total(),
              static_cast<std::size_t>(i + 1));
  }
  // Queue depth may lag (workers pop requests into a forming batch), but
  // outstanding work — what routing balances on — accounts for all 8.
  EXPECT_EQ(set.replica(0)->outstanding_total() +
                set.replica(1)->outstanding_total(),
            8u);
  EXPECT_LE(set.queue_depth(), 8u);

  set.stop();  // drain: parked batches execute on close
  for (auto& future : futures) {
    EXPECT_TRUE(ok(future.get().status));
  }
}

TEST(ReplicaSet, TiesBreakRoundRobinAcrossReplicas) {
  const hw::QNetDesc qnet = make_test_qnet(321);
  ReplicaSet set({qnet}, parked_config(3));

  util::Rng rng{322};
  // 9 submissions into an initially idle set: every submission either ties
  // (balanced loads, round-robin) or goes least-loaded, so the final loads
  // must be exactly balanced and every replica must have been used.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 9; ++i) {
    futures.push_back(set.submit(random_image(rng)));
  }
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(set.replica(r)->outstanding_total(), 3u)
        << "replica " << r << " load not balanced";
  }
  set.stop();
  std::set<std::uint32_t> replicas_used;
  for (auto& future : futures) {
    const Response response = future.get();
    ASSERT_TRUE(ok(response.status));
    replicas_used.insert(response.replica);
  }
  EXPECT_EQ(replicas_used.size(), 3u);
}

TEST(ReplicaSet, EstimatedDelayIsMinimumOverReplicas) {
  const hw::QNetDesc qnet = make_test_qnet(331);
  ReplicaSet set({qnet}, parked_config(2));
  EXPECT_EQ(set.estimated_queue_delay_us(), 0.0);

  util::Rng rng{332};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(set.replica(0)->submit(random_image(rng)));
  }
  // Replica 1 is idle, and routing would send new work there.
  EXPECT_EQ(set.estimated_queue_delay_us(), 0.0);
  EXPECT_GT(set.replica(0)->estimated_queue_delay_us(), 0.0);
  set.stop();
  for (auto& future : futures) (void)future.get();
}

// ---- QoS quota ------------------------------------------------------------

TEST(ReplicaSet, BatchQuotaCapsAdmissionAcrossTheWholeSet) {
  const hw::QNetDesc qnet = make_test_qnet(341);
  DeployConfig config = parked_config(2);
  config.batch_quota = 4;

  ModelServer server;
  server.deploy("m", {qnet}, config);
  const auto set = server.replica_set("m");

  util::Rng rng{342};
  SubmitOptions batch_options;
  batch_options.priority = Priority::kBatch;
  batch_options.deadline_us = 0;

  std::vector<std::future<Response>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(server.submit("m", random_image(rng), batch_options));
  }
  ASSERT_EQ(set->outstanding_batch(), 4u);

  // The quota spans both replicas: even though each queue has plenty of
  // room, the 5th and 6th kBatch submissions shed.
  for (int i = 0; i < 2; ++i) {
    const Response shed =
        server.submit("m", random_image(rng), batch_options).get();
    EXPECT_EQ(shed.status, StatusCode::kShedded);
  }
  EXPECT_EQ(set->quota_shed_count(), 2u);

  // Interactive traffic is never quota-limited.
  SubmitOptions interactive_options;
  interactive_options.priority = Priority::kInteractive;
  auto interactive = server.submit("m", random_image(rng),
                                   interactive_options);

  const StatsSnapshot stats = server.stats("m");
  EXPECT_EQ(stats.shedded, 2u) << "quota sheds must reach aggregated stats";

  server.shutdown();
  for (auto& future : admitted) EXPECT_TRUE(ok(future.get().status));
  EXPECT_TRUE(ok(interactive.get().status));
}

// ---- stats aggregation ----------------------------------------------------

TEST(ReplicaSet, AggregatedSnapshotSumsReplicaSnapshots) {
  const hw::QNetDesc qnet = make_test_qnet(351);
  ModelServer server;
  server.deploy("m", {qnet}, replica_config(3));

  util::Rng rng{352};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  for (auto& future : futures) ASSERT_TRUE(ok(future.get().status));

  const auto set = server.replica_set("m");
  const std::vector<StatsSnapshot> parts = set->replica_snapshots();
  ASSERT_EQ(parts.size(), 3u);
  std::uint64_t sum_completed = 0, sum_batches = 0;
  std::int64_t max_p99 = 0;
  for (const StatsSnapshot& part : parts) {
    sum_completed += part.completed;
    sum_batches += part.batches;
    max_p99 = std::max(max_p99, part.e2e_p99_us);
  }
  const StatsSnapshot total = set->aggregated_snapshot();
  EXPECT_EQ(sum_completed, 24u);
  EXPECT_EQ(total.completed, 24u);
  EXPECT_EQ(total.batches, sum_batches);
  // Bucket-exact merge: the aggregated p99 comes from the merged histogram,
  // so it can never exceed the worst per-replica p99 bucket.
  EXPECT_LE(total.e2e_p99_us, max_p99);
  EXPECT_GT(total.throughput_rps, 0.0);

  const std::string table = server.stats_table("m");
  EXPECT_NE(table.find("per replica"), std::string::npos);
  server.shutdown();
}

// ---- lifecycle under replication ------------------------------------------

TEST(ReplicaSet, HotRedeployAndUndeployDrainEveryReplica) {
  const hw::QNetDesc qnet = make_test_qnet(361);
  ModelServer server;
  server.deploy("m", {qnet}, parked_config(2));

  util::Rng rng{362};
  std::vector<std::future<Response>> v1_futures;
  for (int i = 0; i < 8; ++i) {
    v1_futures.push_back(server.submit("m", random_image(rng)));
  }
  // The set holds parked work when the redeploy lands (queued or already
  // popped into a worker's forming batch).
  {
    const auto v1 = server.replica_set("m");
    ASSERT_GT(v1->replica(0)->outstanding_total() +
                  v1->replica(1)->outstanding_total(),
              0u);
  }

  const ModelHandle v2 = server.deploy("m", {qnet}, replica_config(4));
  EXPECT_EQ(v2.version, 2u);
  EXPECT_EQ(server.replica_set("m")->replica_count(), 4u);
  for (auto& future : v1_futures) {
    const Response response = future.get();
    ASSERT_TRUE(ok(response.status)) << "redeploy must drain, not drop";
    EXPECT_EQ(response.model_version, 1u);
  }

  const Response v2_response = server.submit("m", random_image(rng)).get();
  ASSERT_TRUE(ok(v2_response.status));
  EXPECT_EQ(v2_response.model_version, 2u);

  EXPECT_TRUE(server.undeploy("m"));
  EXPECT_EQ(server.submit("m", random_image(rng)).get().status,
            StatusCode::kModelNotFound);
}

TEST(ReplicaSet, ConcurrentSubmitsAcrossRedeployAndUndeployResolve) {
  const hw::QNetDesc qnet = make_test_qnet(371);
  ModelServer server;
  server.deploy("m", {qnet}, replica_config(2));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> served{0}, misses{0}, other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      util::Rng rng{static_cast<std::uint64_t>(372 + t)};
      while (!done.load(std::memory_order_relaxed)) {
        const Response response =
            server.submit("m", random_image(rng)).get();
        if (ok(response.status)) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (response.status == StatusCode::kModelNotFound) {
          misses.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Draining replicas may refuse late arrivals (kShuttingDown /
          // kQueueFull); what matters is that every future resolves.
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Lifecycle storm: hot redeploys with varying replica counts, plus an
  // undeploy/redeploy cycle, all against live traffic.
  std::uint32_t last_version = 1;
  for (int round = 0; round < 6; ++round) {
    const ModelHandle handle =
        server.deploy("m", {qnet}, replica_config(1 + round % 3));
    EXPECT_GT(handle.version, last_version);
    last_version = handle.version;
    if (round == 3) {
      EXPECT_TRUE(server.undeploy("m"));
      const ModelHandle redeployed =
          server.deploy("m", {qnet}, replica_config(2));
      EXPECT_GT(redeployed.version, last_version);
      last_version = redeployed.version;
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();
  EXPECT_GT(served.load(), 0u);
  server.shutdown();
}

// ---- PR-2 lifecycle race regressions ---------------------------------------

TEST(ModelServerRace, SubmitResolvesShuttingDownAfterEntriesCleared) {
  // Deterministic core of the submit-vs-shutdown race: a submit whose
  // lookup lands after shutdown() cleared the name map misses. Pre-fix,
  // that miss reported kModelNotFound for the vanished model; with the
  // shutdown flag stored before the map clears and checked on every miss
  // (the only shutdown check on the submit path), the late lookup must
  // resolve kShuttingDown.
  const hw::QNetDesc qnet = make_test_qnet(375);
  ModelServer server;
  server.deploy("m", {qnet}, replica_config(1));
  server.shutdown();

  util::Rng rng{376};
  const Response late = server.submit("m", random_image(rng)).get();
  EXPECT_EQ(late.status, StatusCode::kShuttingDown)
      << "got " << status_name(late.status)
      << " — a model that vanished because of shutdown must not be "
         "reported as never deployed";
  EXPECT_EQ(server.not_found_count(), 0u);
}

TEST(ModelServerRace, UndeployWaitsForConcurrentRedeployDrain) {
  // Deterministic core of the undeploy-vs-deploy race: a hot redeploy
  // drains the replaced version while holding lifecycle_mutex_, so an
  // undeploy issued meanwhile must block until the redeploy (drain
  // included) finishes. Pre-fix, undeploy bypassed the mutex and returned
  // while the old version was still draining in the redeploy thread.
  const hw::QNetDesc qnet = make_test_qnet(377);
  ModelServer server;

  // v1 runs on its own paced one-tenant PU at ~5 ms/sample, so draining
  // its backlog inside the redeploy takes a wall-clock-observable ~150 ms
  // (one device timeline, whatever the engine's worker count).
  DeployConfig v1 = replica_config(1);
  server.deploy("m", {qnet}, v1);
  const double native_us = server.engine("m")->simulated_sample_us();
  v1.accel.clock_hz *= native_us / 5000.0;
  v1.placement = {DeviceSpec::on(SharedDevice::create(
      {.name = "npu-v1"}, {.coalesce_window_us = 0, .paced = true}))};
  server.deploy("m", {qnet}, v1);  // redeploy, paced with the slowed clock

  util::Rng rng{378};
  std::vector<std::future<Response>> v1_futures;
  for (int i = 0; i < 30; ++i) {
    SubmitOptions options;
    options.priority = Priority::kBatch;
    options.deadline_us = 0;
    v1_futures.push_back(server.submit("m", random_image(rng), options));
  }

  std::thread redeployer(
      [&] { server.deploy("m", {qnet}, replica_config(1)); });
  // Let the redeploy enter the lifecycle section and start draining v1.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  EXPECT_TRUE(server.undeploy("m"));
  // Serialized undeploy runs only after the redeploy returned, i.e. after
  // every v1 request drained; pre-fix it returned mid-drain.
  std::size_t unresolved = 0;
  for (auto& future : v1_futures) {
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++unresolved;
    }
  }
  EXPECT_EQ(unresolved, 0u)
      << "undeploy returned while the replaced version was still draining";
  redeployer.join();
  for (auto& future : v1_futures) {
    EXPECT_TRUE(ok(future.get().status));
  }
}

TEST(ModelServerRace, SubmitRacingShutdownNeverSeesModelNotFound) {
  // Regression: shutdown() sets the flag and clears the registry, and
  // submit() used to check the flag *before* the registry lookup — a submit
  // interleaving between the two reported kModelNotFound for a model that
  // was deployed the whole time. The router now re-checks the flag on a
  // lookup miss (ordered by the registry mutex), making the race resolve
  // kShuttingDown deterministically.
  for (int round = 0; round < 8; ++round) {
    const hw::QNetDesc qnet = make_test_qnet(381);
    ModelServer server;
    server.deploy("m", {qnet}, replica_config(2));

    std::atomic<bool> start{false};
    std::atomic<std::uint64_t> not_found{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&, t] {
        util::Rng rng{static_cast<std::uint64_t>(382 + t)};
        while (!start.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 50; ++i) {
          const Response response =
              server.submit("m", random_image(rng)).get();
          if (response.status == StatusCode::kModelNotFound) {
            not_found.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    start.store(true, std::memory_order_release);
    server.shutdown();
    for (auto& client : clients) client.join();
    EXPECT_EQ(not_found.load(), 0u)
        << "a deployed model must never resolve kModelNotFound during "
           "shutdown";
  }
}

TEST(ModelServerRace, UndeploySerializedAgainstDeployAndShutdown) {
  // Regression: undeploy() used to bypass lifecycle_mutex_, so it could
  // interleave with a concurrent deploy/shutdown of the same name. Now the
  // three lifecycle operations are mutually exclusive; this storm must stay
  // TSan-clean and every future must resolve with a valid status.
  const hw::QNetDesc qnet = make_test_qnet(391);
  ModelServer server;
  server.deploy("m", {qnet}, replica_config(1));

  std::atomic<bool> done{false};
  std::thread deployer([&] {
    for (int i = 0; i < 12; ++i) {
      server.deploy("m", {qnet}, replica_config(1 + i % 2));
    }
    done.store(true, std::memory_order_release);
  });
  std::thread undeployer([&] {
    while (!done.load(std::memory_order_acquire)) {
      server.undeploy("m");
      std::this_thread::yield();
    }
  });
  util::Rng rng{392};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 60; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  deployer.join();
  undeployer.join();
  for (auto& future : futures) {
    const Response response = future.get();
    EXPECT_TRUE(ok(response.status) ||
                response.status == StatusCode::kModelNotFound ||
                response.status == StatusCode::kShuttingDown ||
                response.status == StatusCode::kQueueFull)
        << "unexpected status " << status_name(response.status);
  }
  server.shutdown();
  EXPECT_FALSE(server.undeploy("m"))
      << "undeploy after shutdown must be an orderly miss";
}

}  // namespace
}  // namespace mfdfp::serve
