// Preemptible shared-PU passes + continuous batching
// (SharedDeviceConfig::preempt_granularity_us), driven through the
// deterministic scheduler harness (tests/serve_test_util.hpp): at
// granularity 0 the chunk loop runs one chunk per tenant run with no joins
// and no preemption, a pass runs its lead and then round-robin sweeps with
// probes ahead and each tenant contiguous, finer granularities split
// passes without changing a single logit, late-arriving compatible work
// joins in-flight passes, geometry-mismatched interactive probes suspend a
// pass between chunks, the final-chunk race neither deadlocks nor
// double-dispatches,
// RequestQueue edges (capacity-1 queue, interactive reserve floor) compose
// with preemption, and a seeded fuzz over randomized arrival schedules
// proves conservation at granularity 0 and 1: no sample lost, duplicated,
// or mis-attributed — per-tenant busy_us sums exactly to the device's
// across chunk and preemption boundaries. The whole file must run clean
// under ThreadSanitizer and ASan+UBSan (see ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "serve_test_util.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Tensor;
using testing::await_device_lane;
using testing::ChunkGate;
using testing::make_preempt_qnet;
using testing::preempt_image;
using testing::VirtualClock;

DeployConfig tenant_config(std::shared_ptr<SharedDevice> pu,
                           std::size_t hw_dim = 16) {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = hw_dim;
  config.max_batch = 4;
  config.max_wait_us = 0;  // form sub-batches immediately: deterministic
  config.workers = 2;
  config.placement = {DeviceSpec::on(std::move(pu))};
  return config;
}

SubmitOptions batch_options() {
  SubmitOptions options;
  options.priority = Priority::kBatch;
  return options;
}

/// Per-tenant row sums out of a snapshot, keyed by model name.
std::map<std::string, std::uint64_t> samples_by_model(
    const SharedDeviceSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> by_model;
  for (const SharedTenantRow& row : snapshot.tenants) {
    by_model[row.model] += row.samples;
  }
  return by_model;
}

// ---- granularity 0: the monolithic path is untouched ------------------------

TEST(Preemption, LegacyMonolithicPathUnchanged) {
  const hw::QNetDesc qnet = make_preempt_qnet(910);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  ASSERT_DOUBLE_EQ(pu_config.preempt_granularity_us, 0.0) << "default off";
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet}, tenant_config(pu));
  util::Rng rng{911};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("a", preempt_image(rng)));
  }
  for (auto& f : futures) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.chunks, snapshot.passes)
      << "a monolithic pass is exactly one chunk";
  EXPECT_EQ(snapshot.preemptions, 0u);
  EXPECT_EQ(snapshot.joined_jobs, 0u);
  EXPECT_EQ(snapshot.joined_passes, 0u);
}

// ---- granularity 0: one chunk per tenant run, no joins, no preemption -------

TEST(Preemption, GranularityZeroRetiresPerTenantRunWithoutJoins) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(915);
  const hw::QNetDesc qnet_b = make_preempt_qnet(916);  // same geometry
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.max_pass_samples = 64;  // room a joiner would have
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  const auto opener = gate.open_on_exit();
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu));

  // Park the dispatcher at the end of a one-tenant warm-up pass, so the
  // next pass forms with both tenants already queued.
  util::Rng rng{917};
  const Tensor warmup_image = preempt_image(rng);
  std::future<Response> warmup = server.submit("a", warmup_image);
  const auto first = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(first.has_value())
      << "the chunk hook must fire at granularity 0";
  EXPECT_EQ(first->remaining_samples, 0u);

  const Tensor image_a = preempt_image(rng);
  const Tensor image_b = preempt_image(rng);
  std::future<Response> future_a = server.submit("a", image_a);
  std::future<Response> future_b = server.submit("b", image_b);
  ASSERT_TRUE(await_device_lane(*pu, "a"));
  ASSERT_TRUE(await_device_lane(*pu, "b"));

  // The two-tenant pass runs one chunk per tenant: after the first, that
  // tenant's sub-batch has retired and the other's has not executed.
  gate.release();
  const auto lead = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(lead.has_value());
  EXPECT_NE(lead->pass, first->pass);
  EXPECT_EQ(lead->chunk, 0u);
  EXPECT_EQ(lead->chunk_samples, 1u);
  EXPECT_EQ(lead->remaining_samples, 1u) << "one chunk per tenant run";
  EXPECT_FALSE(lead->preempting);
  const bool a_leads = lead->model == "a";
  std::future<Response>& lead_future = a_leads ? future_a : future_b;
  std::future<Response>& other_future = a_leads ? future_b : future_a;
  ASSERT_EQ(lead_future.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "a tenant run's riders resolve at the end of its chunk";
  EXPECT_EQ(other_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // A compatible probe queued mid-pass neither joins nor preempts it.
  const Tensor probe_image = preempt_image(rng);
  std::future<Response> probe = server.submit("a", probe_image);
  ASSERT_TRUE(await_device_lane(*pu, "a"));
  gate.release();
  const auto tail = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->pass, lead->pass);
  EXPECT_EQ(tail->model, a_leads ? "b" : "a");
  EXPECT_EQ(tail->remaining_samples, 0u) << "the probe must not join";
  EXPECT_FALSE(tail->preempting);
  EXPECT_FALSE(tail->interactive_pass);
  gate.open();

  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref_a.run(probe_image)),
            0.0f);
  const Response ra = future_a.get();
  const Response rb = future_b.get();
  ASSERT_TRUE(ok(ra.status)) << ra.detail;
  ASSERT_TRUE(ok(rb.status)) << rb.detail;
  EXPECT_EQ(tensor::max_abs_diff(ra.logits, ref_a.run(image_a)), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(rb.logits, ref_b.run(image_b)), 0.0f);
  ASSERT_TRUE(ok(warmup.get().status));
  server.shutdown();

  // Warm-up (1 chunk), the two-tenant pass (2 chunks), the probe (1).
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.passes, 3u);
  EXPECT_EQ(snapshot.chunks, 4u);
  EXPECT_EQ(snapshot.cobatched_passes, 1u);
  EXPECT_EQ(snapshot.joined_jobs, 0u);
  EXPECT_EQ(snapshot.joined_passes, 0u);
  EXPECT_EQ(snapshot.preemptions, 0u);
}

// ---- pass composition -------------------------------------------------------

// A pass is the lead's sub-batch, then round-robin sweeps from the cursor,
// one sub-batch per tenant per sweep; probes form an interactive run ahead
// of the batch run, and each tenant stays contiguous in its run. After a
// warm-up led by `a` the cursor is at `b`, so `b` leads: the interactive
// run is c's probe, the batch run b, b, then a, a (sweep order c, a, b),
// then c. At granularity 0 each tenant run is one chunk. The next pass is
// led by `c` and runs c, a, b — the reverse of the first pass's batch
// tenant order, so no fixed tenant order (such as heap address) can pass.
TEST(Preemption, PassRunsLeadFirstThenRoundRobin) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(918);
  const hw::QNetDesc qnet_b = make_preempt_qnet(919);
  const hw::QNetDesc qnet_c = make_preempt_qnet(923);  // same geometry
  const std::map<std::string, hw::AcceleratorExecutor> refs = {
      {"a", hw::AcceleratorExecutor(qnet_a)},
      {"b", hw::AcceleratorExecutor(qnet_b)},
      {"c", hw::AcceleratorExecutor(qnet_c)}};

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.max_pass_samples = 64;  // room for every queued sub-batch
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  const auto opener = gate.open_on_exit();
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu));
  server.deploy("c", {qnet_c}, tenant_config(pu));

  util::Rng rng{924};
  std::future<Response> warmup = server.submit("a", preempt_image(rng));
  const auto first = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->model, "a");

  // One-sample sub-batches, each queued on the device before the next is
  // submitted, so every request is its own sub-batch.
  struct Queued {
    std::string model;
    Tensor image;
    std::future<Response> future;
  };
  std::vector<Queued> queued;
  const auto enqueue = [&](const std::string& model,
                           const SubmitOptions& options, std::size_t depth) {
    Tensor image = preempt_image(rng);
    std::future<Response> future = server.submit(model, image, options);
    queued.push_back({model, std::move(image), std::move(future)});
    return await_device_lane(*pu, model, depth);
  };
  // Releases the parked dispatcher into the next pass and checks its
  // chunks and reloads; the dispatcher parks again at the last chunk.
  const auto expect_pass =
      [&](const std::vector<std::pair<std::string, std::size_t>>& chunks,
          std::uint64_t reloads) {
        const std::uint64_t switches = pu->snapshot().model_switches;
        gate.release(chunks.size());
        std::uint64_t pass = 0;
        for (std::size_t i = 0; i < chunks.size(); ++i) {
          const auto event = gate.next_for(std::chrono::seconds(20));
          ASSERT_TRUE(event.has_value()) << "chunk " << i;
          if (i == 0) pass = event->pass;
          EXPECT_EQ(event->pass, pass);
          EXPECT_EQ(event->chunk, i);
          EXPECT_EQ(event->model, chunks[i].first) << "chunk " << i;
          EXPECT_EQ(event->chunk_samples, chunks[i].second) << "chunk " << i;
        }
        EXPECT_EQ(pu->snapshot().model_switches - switches, reloads);
      };

  ASSERT_TRUE(enqueue("a", batch_options(), 1));
  ASSERT_TRUE(enqueue("a", batch_options(), 2));
  ASSERT_TRUE(enqueue("b", batch_options(), 1));
  ASSERT_TRUE(enqueue("b", batch_options(), 2));
  ASSERT_TRUE(enqueue("c", batch_options(), 1));
  ASSERT_TRUE(enqueue("c", SubmitOptions{}, 2));  // the probe
  // One reload per chunk: every tenant run is contiguous.
  expect_pass({{"c", 1}, {"b", 2}, {"a", 2}, {"c", 1}}, 4);

  ASSERT_TRUE(enqueue("a", batch_options(), 1));
  ASSERT_TRUE(enqueue("b", batch_options(), 1));
  ASSERT_TRUE(enqueue("c", batch_options(), 1));
  // `c` is still resident from the last chunk: two reloads.
  expect_pass({{"c", 1}, {"a", 1}, {"b", 1}}, 2);
  gate.open();

  for (Queued& q : queued) {
    const Response response = q.future.get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    EXPECT_EQ(tensor::max_abs_diff(response.logits,
                                   refs.at(q.model).run(q.image)),
              0.0f);
  }
  ASSERT_TRUE(ok(warmup.get().status));
  server.shutdown();
}

// ---- chunking preserves logits bit-for-bit ----------------------------------

TEST(Preemption, ChunkLoopSplitsPassesAndPreservesLogits) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(920);
  const hw::QNetDesc qnet_b = make_preempt_qnet(921);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  // Granularity below one sample's modeled cost: every chunk is exactly
  // one sample — the maximum number of chunk boundaries (and sub-batch
  // splits) the scheduler can produce.
  pu_config.preempt_granularity_us = 0.4;
  // Park the dispatcher at its first chunk boundary until every request
  // below is queued: later pass formation always sees a deep backlog, so
  // multi-sample sub-batches — and the chunk splits this test asserts on —
  // happen regardless of how fast this machine drains single samples.
  ChunkGate gate;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu));

  util::Rng rng{922};
  std::vector<Tensor> images;
  for (int i = 0; i < 24; ++i) images.push_back(preempt_image(rng));
  std::vector<std::future<Response>> futures_a, futures_b;
  for (const Tensor& image : images) {
    futures_a.push_back(server.submit("a", image));
    futures_b.push_back(server.submit("b", image));
  }
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "dispatcher never reached a chunk boundary";
  gate.open();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Response ra = futures_a[i].get();
    const Response rb = futures_b[i].get();
    ASSERT_TRUE(ok(ra.status)) << ra.detail;
    ASSERT_TRUE(ok(rb.status)) << rb.detail;
    // Chunk boundaries slice sub-batches mid-tensor; the logits must be
    // bit-identical to an unchunked execution anyway.
    EXPECT_EQ(tensor::max_abs_diff(ra.logits, ref_a.run(images[i])), 0.0f);
    EXPECT_EQ(tensor::max_abs_diff(rb.logits, ref_b.run(images[i])), 0.0f);
  }
  server.shutdown();

  // Below one sample's cost every chunk is one sample, so the chunk count
  // proves the budget split every multi-sample sub-batch.
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.chunks, 48u)
      << "per-sample granularity must run one chunk per served sample";
  EXPECT_EQ(samples_by_model(snapshot)["a"], 24u);
  EXPECT_EQ(samples_by_model(snapshot)["b"], 24u);
}

// ---- chunk events say when the budget split a run ---------------------------

// One 5-sample sub-batch, executed straight through its tenant backend on a
// virtual clock, so only the budget decides the chunks. With room for two
// samples per chunk the budget closes the first two chunks mid-run and the
// third ends the run; without a budget the run is one unflagged chunk.
TEST(Preemption, ChunkEventsFlagBudgetClosedChunks) {
  const hw::QNetDesc qnet = make_preempt_qnet(940);
  DeployConfig tenant;
  tenant.in_c = 3;
  tenant.in_h = tenant.in_w = 16;
  const double sample_us =
      SimulatedAcceleratorBackend({qnet}, tenant.accel, DeviceSpec{}, 3, 16,
                                  16)
          .sample_us();
  ASSERT_GT(sample_us, 0.0);

  const auto run_chunks = [&](double granularity_us) {
    VirtualClock clock;
    ChunkGate gate;  // opened: records every boundary, holds none
    SharedDeviceConfig pu_config;
    pu_config.paced = true;
    pu_config.coalesce_window_us = 0;
    pu_config.preempt_granularity_us = granularity_us;
    clock.bind(pu_config);
    gate.bind(pu_config);
    gate.open();
    auto pu = SharedDevice::create({}, pu_config);
    const auto backend = pu->attach({qnet}, tenant);
    util::Rng rng{941};
    Tensor stacked{tensor::Shape{5, 3, 16, 16}};
    stacked.fill_uniform(rng, -1.0f, 1.0f);
    hw::ExecScratch scratch;
    (void)backend->execute(stacked, scratch, ExecHints{});
    // The hook runs after the chunk's riders are released, so collect the
    // events until the run's last sample is accounted for.
    std::vector<SharedDeviceChunkEvent> events;
    std::size_t samples = 0;
    while (samples < 5) {
      const auto event = gate.next_for(std::chrono::seconds(20));
      if (!event.has_value()) break;
      samples += event->chunk_samples;
      events.push_back(*event);
    }
    return events;
  };

  const std::vector<SharedDeviceChunkEvent> split =
      run_chunks(2.5 * sample_us);
  ASSERT_EQ(split.size(), 3u);
  EXPECT_EQ(split[0].chunk_samples, 2u);
  EXPECT_EQ(split[1].chunk_samples, 2u);
  EXPECT_EQ(split[2].chunk_samples, 1u);
  EXPECT_TRUE(split[0].budget_closed);
  EXPECT_TRUE(split[1].budget_closed);
  EXPECT_FALSE(split[2].budget_closed) << "the run's end closed it";

  const std::vector<SharedDeviceChunkEvent> whole = run_chunks(0.0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].chunk_samples, 5u);
  EXPECT_FALSE(whole[0].budget_closed) << "no budget, no budget close";
}

// ---- virtual-time pacing replays deterministically --------------------------

TEST(Preemption, PacedScheduleReplaysOnVirtualClock) {
  const hw::QNetDesc qnet = make_preempt_qnet(930);
  const auto run_once = [&qnet]() {
    VirtualClock clock;
    SharedDeviceConfig pu_config;
    pu_config.paced = true;  // pacing sleeps advance the virtual clock
    pu_config.preempt_granularity_us = 1.0;
    // The tiny test net's modeled compute is sub-microsecond per chunk and
    // pacing sleeps truncate to whole microseconds, so give the reload a
    // cost the virtual clock can observe.
    pu_config.model_switch_us = 25.0;
    clock.bind(pu_config);
    auto pu = SharedDevice::create({}, pu_config);

    ModelServer server;
    DeployConfig config = tenant_config(pu);
    config.workers = 1;  // sequential sub-batches: one deterministic order
    server.deploy("a", {qnet}, config);
    util::Rng rng{931};
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(ok(server.submit("a", preempt_image(rng)).get().status));
    }
    server.shutdown();
    const SharedDeviceSnapshot snapshot = pu->snapshot();
    EXPECT_GT(clock.now(), 0) << "pacing must consume virtual time";
    return std::make_pair(snapshot.busy_us, snapshot.chunks);
  };

  const auto first = run_once();
  const auto second = run_once();
  // Same seed, same virtual clock: the modeled schedule replays exactly —
  // no wall-clock jitter can leak into the accounting.
  EXPECT_DOUBLE_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(Preemption, PacedPuKeepsOneTimelineAtAnyWorkerCount) {
  // A paced PU is the only pacing authority: four engine workers feeding
  // one paced one-tenant PU still drain exactly one device's worth of
  // modeled time — every sample's compute plus a single reload — and the
  // dispatcher sleeps it out on one clock instead of four.
  const hw::QNetDesc qnet = make_preempt_qnet(935);
  VirtualClock clock;
  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.preempt_granularity_us = 1.0;
  pu_config.model_switch_us = 25.0;
  clock.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 4;
  server.deploy("a", {qnet}, config);
  const double sample_us = server.engine("a")->simulated_sample_us();
  util::Rng rng{936};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }
  for (auto& future : futures) ASSERT_TRUE(ok(future.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.model_switches, 1u) << "one tenant reloads once";
  EXPECT_NEAR(snapshot.busy_us, 32.0 * sample_us + 25.0, 1e-6);
  // Pacing sleeps truncate each chunk's cost to whole microseconds, so the
  // clock may trail busy time by under 1 us per chunk — never by a
  // worker-count multiple.
  EXPECT_GE(static_cast<double>(clock.now()),
            snapshot.busy_us - static_cast<double>(snapshot.chunks));
}

// ---- continuous batching: a probe joins the in-flight pass ------------------

TEST(Preemption, ProbeJoinsInFlightPass) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(940);
  const hw::QNetDesc qnet_b = make_preempt_qnet(941);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;  // up to 4 samples per chunk
  pu_config.max_pass_samples = 64;  // room for joiners
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  const auto opener = gate.open_on_exit();
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu));  // same geometry: joinable

  // Flood the batch lane of `a`; its workers keep resubmitting as jobs
  // retire mid-pass, so the pass stays in flight while we inject.
  util::Rng rng{942};
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 40; ++i) {
    flood.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }

  // Walk chunk boundaries until the dispatcher is parked MID-pass (samples
  // of the flood pass still remaining). The dispatcher is frozen in the
  // hook, so we can inject the probe and wait until b's engine worker has
  // it queued in the device lane (visible as pending work in the
  // snapshot). Releasing then forces the next chunk plan to see the queued
  // joiner while its pass is still in flight.
  std::uint64_t target_pass = 0;
  bool parked_mid_pass = false;
  for (int boundary = 0; boundary < 400; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "flood drained before a mid-pass park";
    ASSERT_EQ(event->model, "a");
    if (event->remaining_samples > 0) {
      target_pass = event->pass;
      parked_mid_pass = true;
      break;
    }
    // The pass finished. A chunk here holds up to 4 samples (a whole
    // sub-batch), so only a pass of two sub-batches has a mid-pass
    // boundary: hold this one until both of a's workers have queued their
    // next sub-batch, or a loaded machine can run the whole flood as
    // one-sub-batch passes.
    ASSERT_TRUE(await_device_lane(*pu, "a", 2))
        << "flood drained before a mid-pass park";
    gate.release();
  }
  ASSERT_TRUE(parked_mid_pass);

  const Tensor probe_image = preempt_image(rng);
  std::future<Response> probe = server.submit("b", probe_image);
  ASSERT_TRUE(await_device_lane(*pu, "b"))
      << "probe never reached the device lane";

  // The probe joined iff its model executes inside the SAME pass (same
  // sequence number), not an interactive preemption pass of its own.
  bool joined_in_flight = false;
  gate.release();
  for (int boundary = 0; boundary < 400 && !joined_in_flight; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "device drained before the probe joined";
    if (event->pass == target_pass && event->model == "b" &&
        !event->interactive_pass) {
      joined_in_flight = true;
    }
    gate.release();
  }
  gate.open();

  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref_b.run(probe_image)),
            0.0f)
      << "joining a pass must not change the probe's logits";
  EXPECT_TRUE(joined_in_flight)
      << "the compatible probe must ride the in-flight pass, not wait for "
         "the next one";
  for (auto& f : flood) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GE(snapshot.joined_jobs, 1u);
  EXPECT_GE(snapshot.joined_passes, 1u);
}

// ---- preemption: a mismatched probe suspends the pass -----------------------

TEST(Preemption, MismatchedProbeSuspendsPassBetweenChunks) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(950);          // 16x16
  const hw::QNetDesc qnet_b = make_preempt_qnet(951, 8);       // 8x8: no join
  const hw::AcceleratorExecutor ref_b(qnet_b);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  // Below one sample's modeled cost: every chunk is a single sample, so a
  // 4-sample job alone gives several boundaries to suspend at.
  pu_config.preempt_granularity_us = 0.4;
  pu_config.max_pass_samples = 64;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu, 8));

  util::Rng rng{952};
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 40; ++i) {
    flood.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }

  // Park the dispatcher mid-pass (flood samples still remaining), inject
  // the geometry-incompatible probe, and wait — dispatcher frozen — until
  // b's engine worker has it queued in the device lane. Releasing then
  // forces the suspend decision at the very next boundary: the probe
  // cannot join, so the pass must preempt and run it as its own
  // interactive pass.
  bool parked_mid_pass = false;
  for (int boundary = 0; boundary < 400; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "flood drained before a mid-pass park";
    EXPECT_FALSE(event->interactive_pass);
    if (event->remaining_samples > 1) {
      parked_mid_pass = true;
      break;
    }
    gate.release();
  }
  ASSERT_TRUE(parked_mid_pass);

  const Tensor probe_image = preempt_image(rng, 8);
  std::future<Response> probe = server.submit("b", probe_image);
  ASSERT_TRUE(await_device_lane(*pu, "b"))
      << "probe never reached the device lane";

  bool saw_preempt = false;
  bool probe_ran_as_interactive_pass = false;
  gate.release();
  for (int boundary = 0; boundary < 400; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "device drained before the preemption";
    if (event->preempting) {
      saw_preempt = true;
      EXPECT_GT(event->remaining_samples, 0u)
          << "a preempting pass suspends with work left, by definition";
    }
    if (event->interactive_pass) {
      EXPECT_EQ(event->model, "b");
      probe_ran_as_interactive_pass = true;
      // The probe's pass has run; its future resolves once the gate opens.
      // Waiting here for more chunk events could outlast the flood.
      break;
    }
    gate.release();
  }
  gate.open();

  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref_b.run(probe_image)),
            0.0f);
  EXPECT_TRUE(saw_preempt);
  EXPECT_TRUE(probe_ran_as_interactive_pass)
      << "a geometry-mismatched probe must get its own pass mid-flood";
  for (auto& f : flood) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GE(snapshot.preemptions, 1u);
  // The suspended pass resumed and finished: nothing lost or duplicated.
  EXPECT_EQ(samples_by_model(snapshot)["a"], 40u);
  EXPECT_EQ(samples_by_model(snapshot)["b"], 1u);
}

// ---- the final-chunk race ---------------------------------------------------

TEST(Preemption, ProbeDuringFinalChunkNoDeadlockNoDoubleDispatch) {
  const hw::QNetDesc qnet = make_preempt_qnet(960);
  const hw::AcceleratorExecutor ref(qnet);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 1;  // exactly one 4-sample sub-batch -> one 4-chunk pass
  server.deploy("a", {qnet}, config);

  util::Rng rng{961};
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 4; ++i) {
    flood.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }

  // Walk to the FINAL chunk boundary of the pass (remaining 0): the
  // dispatcher is parked in the hook after the pass fully retired. A probe
  // arriving exactly now must be picked up by the next pass — not lost
  // (deadlock) and not dispatched into the dead pass (double-dispatch).
  auto event = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(event.has_value());
  while (event->remaining_samples > 0) {
    gate.release();
    event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value());
  }
  const Tensor probe_image = preempt_image(rng);
  std::future<Response> probe = server.submit("a", probe_image);
  gate.open();

  ASSERT_EQ(probe.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "probe arriving during the final chunk must not deadlock dispatch";
  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref.run(probe_image)), 0.0f);
  for (auto& f : flood) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  // Exactly 5 samples served once each — a double-dispatch would inflate
  // the device-side totals even where futures look fine.
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(samples_by_model(snapshot)["a"], 5u);
}

// ---- RequestQueue edges x preemption ----------------------------------------

TEST(Preemption, CapacityOneQueueComposesWithPreemption) {
  const hw::QNetDesc qnet = make_preempt_qnet(970);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 1;
  config.max_batch = 1;
  config.queue_capacity = 1;  // the smallest legal queue: no reserve below 2
  server.deploy("a", {qnet}, config);

  // Hammer the 1-slot queue from two threads with mixed priorities: every
  // submission must resolve (served or cleanly rejected) — no deadlock, no
  // lost future — and the served count must match the device-side samples.
  std::vector<std::future<Response>> futures(40);
  std::thread interactive_thread([&] {
    util::Rng rng{971};
    for (int i = 0; i < 20; ++i) {
      futures[static_cast<std::size_t>(i)] =
          server.submit("a", preempt_image(rng));
    }
  });
  std::thread batch_thread([&] {
    util::Rng rng{972};
    for (int i = 20; i < 40; ++i) {
      futures[static_cast<std::size_t>(i)] =
          server.submit("a", preempt_image(rng), batch_options());
    }
  });
  interactive_thread.join();
  batch_thread.join();

  std::size_t served = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (ok(r.status)) {
      ++served;
    } else {
      EXPECT_TRUE(r.status == StatusCode::kQueueFull ||
                  r.status == StatusCode::kShedded)
          << "unexpected failure: " << r.detail;
    }
  }
  EXPECT_GE(served, 1u);
  server.shutdown();
  EXPECT_EQ(samples_by_model(pu->snapshot())["a"], served)
      << "served responses and device-side samples must agree exactly";
}

TEST(Preemption, InteractiveReserveFloorHoldsUnderBatchFlood) {
  const hw::QNetDesc qnet = make_preempt_qnet(980);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 1;
  config.max_batch = 1;
  // Capacity 2 rounds capacity/8 to 0; the reserve floor must still hold
  // one slot only kInteractive may occupy, so a batch flood can never
  // occupy the whole queue.
  config.queue_capacity = 2;
  server.deploy("a", {qnet}, config);

  util::Rng rng{981};
  std::vector<std::future<Response>> batch_futures;
  for (int i = 0; i < 30; ++i) {
    batch_futures.push_back(
        server.submit("a", preempt_image(rng), batch_options()));
  }
  std::size_t interactive_served = 0;
  for (int i = 0; i < 10; ++i) {
    const Response r = server.submit("a", preempt_image(rng)).get();
    if (ok(r.status)) ++interactive_served;
  }
  // The reserved slot guarantees probes keep landing mid-flood.
  EXPECT_GE(interactive_served, 1u);
  for (auto& f : batch_futures) (void)f.get();
  server.shutdown();
}

// ---- seeded fuzz over randomized arrival schedules --------------------------

// Conservation properties across ~600 requests per seed and granularity
// (0: one chunk per tenant run; 1: chunks, joins and preemption), with a
// per-pass overhead and weight reloads to attribute, three tenants (two
// joinable geometries plus one mismatched), random priorities and random
// inter-arrival jitter from three submitter threads:
//   1. every response is served with logits bit-identical to its model's
//      reference executor (nothing lost, duplicated, or cross-wired);
//   2. device-side per-tenant sample counts equal the submitted counts;
//   3. per-tenant busy_us sums to the device's busy_us exactly (modulo
//      float summation order) across every chunk/preemption/join boundary;
//   4. chunked scheduling really ran (chunks >= passes).
void fuzz_conservation(double granularity_us) {
  for (const std::uint64_t seed : {3101ull, 3202ull, 3303ull}) {
    const hw::QNetDesc qnet_a = make_preempt_qnet(seed);
    const hw::QNetDesc qnet_b = make_preempt_qnet(seed + 7);
    const hw::QNetDesc qnet_c = make_preempt_qnet(seed + 13, 8);
    const hw::AcceleratorExecutor ref_a(qnet_a);
    const hw::AcceleratorExecutor ref_b(qnet_b);
    const hw::AcceleratorExecutor ref_c(qnet_c);

    SharedDeviceConfig pu_config;
    pu_config.paced = false;
    pu_config.preempt_granularity_us = granularity_us;
    pu_config.pass_overhead_us = 3.0;
    pu_config.model_switch_us = 5.0;
    auto pu = SharedDevice::create({}, pu_config);

    ModelServer server;
    server.deploy("a", {qnet_a}, tenant_config(pu));
    server.deploy("b", {qnet_b}, tenant_config(pu));
    server.deploy("c", {qnet_c}, tenant_config(pu, 8));

    constexpr int kPerThread = 200;
    struct Submitted {
      std::string model;
      Tensor image;
      std::future<Response> future;
    };
    std::vector<std::vector<Submitted>> per_thread(3);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < 3; ++t) {
      submitters.emplace_back([&, t] {
        util::Rng rng{seed * 97 + t};
        auto& out = per_thread[t];
        out.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t pick = rng.next_u64() % 3;
          const std::string model = pick == 0 ? "a" : pick == 1 ? "b" : "c";
          const std::size_t dim = model == "c" ? 8 : 16;
          SubmitOptions options;
          options.priority = (rng.next_u64() % 4 == 0) ? Priority::kInteractive
                                                   : Priority::kBatch;
          Submitted s;
          s.model = model;
          s.image = preempt_image(rng, dim);
          s.future = server.submit(model, s.image, options);
          out.push_back(std::move(s));
          if (rng.next_u64() % 8 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      });
    }
    for (auto& t : submitters) t.join();

    std::map<std::string, std::uint64_t> submitted;
    for (auto& thread_batch : per_thread) {
      for (Submitted& s : thread_batch) {
        const Response r = s.future.get();
        ASSERT_TRUE(ok(r.status)) << s.model << ": " << r.detail;
        const hw::AcceleratorExecutor& ref =
            s.model == "a" ? ref_a : s.model == "b" ? ref_b : ref_c;
        ASSERT_EQ(tensor::max_abs_diff(r.logits, ref.run(s.image)), 0.0f)
            << "seed " << seed << " model " << s.model;
        ++submitted[s.model];
      }
    }
    server.shutdown();

    const SharedDeviceSnapshot snapshot = pu->snapshot();
    const auto served = samples_by_model(snapshot);
    for (const auto& [model, count] : submitted) {
      EXPECT_EQ(served.at(model), count)
          << "seed " << seed << ": lost/duplicated samples for " << model;
    }
    double tenant_busy_sum = 0.0;
    for (const SharedTenantRow& row : snapshot.tenants) {
      tenant_busy_sum += row.busy_us;
    }
    EXPECT_NEAR(tenant_busy_sum, snapshot.busy_us,
                1e-6 * std::max(1.0, snapshot.busy_us))
        << "seed " << seed
        << ": attribution must stay exact across preemption boundaries";
    EXPECT_GE(snapshot.chunks, snapshot.passes);
    EXPECT_GT(snapshot.chunks, 0u);
  }
}

TEST(Preemption, FuzzSeededSchedulesConserveSamplesAndAttribution) {
  for (const double granularity_us : {0.0, 1.0}) {
    SCOPED_TRACE("granularity " + std::to_string(granularity_us));
    fuzz_conservation(granularity_us);
  }
}

}  // namespace
}  // namespace mfdfp::serve
