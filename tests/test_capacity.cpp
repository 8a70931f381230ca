// Deploy-time SLO schedulability analyzer (analysis/capacity.hpp):
// hand-computed bounds for single-replica / heterogeneous / shared-PU
// placements, adversarial configs at the exact feasibility boundary
// (accepted at the bound, rejected one microsecond past), the
// zero-rate/empty-envelope degenerate sweep, the engine/router/analyzer
// single-cost-formula contract, and the ModelServer::deploy() gate
// (DeployError{kInfeasibleSlo}, warn-only mode, cross-tenant rejection).
// The whole file must run clean under ThreadSanitizer and ASan+UBSan
// (see ci.yml).
#include "analysis/capacity.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "nn/zoo.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"

namespace mfdfp::serve {
namespace {

using analysis::Finding;
using analysis::ModelFacts;
using analysis::ProofKind;
using analysis::ReplicaFacts;
using analysis::TrafficEnvelope;
using analysis::Verdict;
using tensor::Shape;
using tensor::Tensor;

hw::QNetDesc make_test_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

Tensor random_image(util::Rng& rng) {
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

/// One dedicated replica: sample 100us, batch 4, wait 200us, queue 64.
ReplicaFacts dedicated_replica(const std::string& key = "m/dev0#r0") {
  ReplicaFacts r;
  r.device = "dev0";
  r.device_key = key;
  r.sample_us = 100.0;
  r.max_batch = 4;
  r.max_wait_us = 200;
  r.queue_capacity = 64;
  return r;
}

/// One tenant of the shared-PU scenario bench/ablation_capacity drives:
/// sample 400us, reload 1000us, pass cap 32, window 500us, wait 200us.
ReplicaFacts shared_tenant(const std::string& pu = "pu") {
  ReplicaFacts r;
  r.device = pu;
  r.device_key = pu;
  r.shared = true;
  r.sample_us = 400.0;
  r.max_batch = 4;
  r.max_wait_us = 200;
  r.queue_capacity = 8192;
  r.switch_us = 1000.0;
  r.max_pass_samples = 32;
  r.cobatch = true;
  r.coalesce_window_us = 500;
  return r;
}

const Finding* find_proof(const analysis::CapacityReport& report,
                          ProofKind proof,
                          const std::string& model = std::string{}) {
  for (const Finding& f : report.findings) {
    if (f.proof == proof && (model.empty() || f.model == model)) return &f;
  }
  return nullptr;
}

// ---- the shared cost formula ------------------------------------------------

TEST(CommittedDelay, IsTheLinearAdmissionFormula) {
  EXPECT_DOUBLE_EQ(analysis::committed_delay_us(0.0, 100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(analysis::committed_delay_us(5.0, 100.0, 0.0), 500.0);
  EXPECT_DOUBLE_EQ(analysis::committed_delay_us(5.0, 100.0, 250.0), 750.0);
}

// ---- hand-computed bounds: dedicated single replica -------------------------

// Blocking = one full batch = 4 x 100 = 400us. A burst of 8 spans
// ceil(8/4) = 2 sub-batches of 400us each. Worst case =
// 400 (blocking) + 200 (batch wait) + 2 x 400 (own rides) = 1400us.
TEST(Capacity, DedicatedBoundIsHandComputable) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 100.0;
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_burst = 8;
  m.envelope.interactive_deadline_us = 1400.0;
  m.replicas.push_back(dedicated_replica());

  const analysis::CapacityReport report = analysis::analyze_capacity({m});
  ASSERT_TRUE(report.feasible()) << report.table("dedicated");

  const Finding* latency =
      find_proof(report, ProofKind::kInteractiveLatency, "m");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->worst_case_us, 1400.0);
  EXPECT_EQ(latency->verdict, Verdict::kProven);

  // Utilization: 100 rps x 100us = 10000 busy us per wall second.
  const Finding* util = find_proof(report, ProofKind::kUtilization);
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->worst_case_us, 10000.0);
  EXPECT_DOUBLE_EQ(util->budget_us, 1e6);

  // Queue: ceil(100 rps x 600us stall / 1e6 + burst 8) = 9 <= 64 slots.
  const Finding* queue = find_proof(report, ProofKind::kQueueCapacity, "m");
  ASSERT_NE(queue, nullptr);
  EXPECT_DOUBLE_EQ(queue->worst_case_us, 9.0);
  EXPECT_EQ(queue->verdict, Verdict::kProven);
}

// The adversarial boundary: the identical placement is accepted with the
// budget at the bound and rejected one microsecond past it.
TEST(Capacity, BoundaryIsExactToTheMicrosecond) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 100.0;
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_burst = 8;
  m.replicas.push_back(dedicated_replica());

  m.envelope.interactive_deadline_us = 1400.0;
  EXPECT_TRUE(analysis::analyze_capacity({m}).feasible());

  m.envelope.interactive_deadline_us = 1399.0;
  const analysis::CapacityReport rejected = analysis::analyze_capacity({m});
  EXPECT_FALSE(rejected.feasible());
  EXPECT_EQ(rejected.violated_count(), 1u);
  const Finding* latency =
      find_proof(rejected, ProofKind::kInteractiveLatency, "m");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->verdict, Verdict::kViolated);
  EXPECT_DOUBLE_EQ(latency->worst_case_us, 1400.0);
}

// ---- hand-computed bounds: shared PU ----------------------------------------

// Two tenants co-batching on one PU. Blocking = a maximal pass:
// 32 samples x 400us + both reloads (2 x 1000us) = 14800us. A burst of 16
// at max_batch 4 rides ceil(16/4) = 4 worst-case passes. Worst case =
// 14800 + 500 (window) + 200 (wait) + 4 x 14800 = 74700us — the exact
// bound bench/ablation_capacity enforces against measured p99.
TEST(Capacity, SharedPuBoundMatchesTheAblationShape) {
  ModelFacts a;
  a.model = "a";
  a.envelope.arrival_rps = 40.0;
  a.envelope.interactive_fraction = 1.0;
  a.envelope.interactive_burst = 16;
  a.envelope.interactive_deadline_us = 74700.0;
  a.replicas.push_back(shared_tenant());

  ModelFacts b;  // deadline-less flood tenant: blocking only, no proofs
  b.model = "b";
  b.replicas.push_back(shared_tenant());

  const analysis::CapacityReport report = analysis::analyze_capacity({a, b});
  ASSERT_TRUE(report.feasible()) << report.table("shared");

  const Finding* latency =
      find_proof(report, ProofKind::kInteractiveLatency, "a");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->worst_case_us, 74700.0);

  // One microsecond past: violated.
  a.envelope.interactive_deadline_us = 74699.0;
  EXPECT_FALSE(analysis::analyze_capacity({a, b}).feasible());

  // Utilization on the PU: 40 rps x 400us compute plus (40/32) passes/s
  // x 2000us of reloads = 16000 + 2500 = 18500 busy us per wall second.
  const Finding* util = find_proof(report, ProofKind::kUtilization);
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->worst_case_us, 18500.0);
}

// The identical PR-9 placement with preemption enabled
// (preempt_granularity_us = 2000) proves a strictly smaller bound: blocking
// shrinks from one maximal pass (14800us) to one maximal chunk
// (max(2000, 400) + 1000 reload = 3000us), probes skip the 500us coalesce
// window, and each of the ceil(16/4) = 4 burst rides is one chunk plus the
// probe's own sub-batch (3000 + 4 x 400 + 1000 = 5600us) instead of a full
// pass. Worst case = 3000 + 0 + 200 + 4 x 5600 = 25600us — down from
// 74700us on the monolithic device, exact to the microsecond.
TEST(Capacity, PreemptiblePuTightensTheSharedBound) {
  ModelFacts a;
  a.model = "a";
  a.envelope.arrival_rps = 40.0;
  a.envelope.interactive_fraction = 1.0;
  a.envelope.interactive_burst = 16;
  a.envelope.interactive_deadline_us = 25600.0;
  a.replicas.push_back(shared_tenant());
  a.replicas.back().preempt_granularity_us = 2000.0;

  ModelFacts b;  // deadline-less flood tenant: blocking only, no proofs
  b.model = "b";
  b.replicas.push_back(shared_tenant());
  b.replicas.back().preempt_granularity_us = 2000.0;

  const analysis::CapacityReport report = analysis::analyze_capacity({a, b});
  ASSERT_TRUE(report.feasible()) << report.table("preemptible");

  const Finding* latency =
      find_proof(report, ProofKind::kInteractiveLatency, "a");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->worst_case_us, 25600.0);
  EXPECT_EQ(latency->verdict, Verdict::kProven);

  // Strictly tighter than the monolithic 74700us bound of the same shape —
  // and a deadline the monolithic device can never prove is now provable.
  EXPECT_LT(latency->worst_case_us, 74700.0);

  // One microsecond past: violated (the chunked bound is exact, not loose).
  a.envelope.interactive_deadline_us = 25599.0;
  EXPECT_FALSE(analysis::analyze_capacity({a, b}).feasible());

  // Utilization gains the preemption reload tax: 40 rps x 400us compute
  // + (40/32) passes/s x 2000us amortized reloads + (40/4) probe
  // sub-batches/s x (own reload 1000 + resume reload 1000)
  // = 16000 + 2500 + 20000 = 38500 busy us per wall second.
  const Finding* util = find_proof(report, ProofKind::kUtilization);
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->worst_case_us, 38500.0);

  // A huge granularity degrades gracefully: every chunked term is min()'d
  // against its monolithic counterpart, so the bound can never exceed the
  // non-preemptible one.
  a.envelope.interactive_deadline_us = 74700.0;
  a.replicas.back().preempt_granularity_us = 1e9;
  b.replicas.back().preempt_granularity_us = 1e9;
  const analysis::CapacityReport coarse = analysis::analyze_capacity({a, b});
  const Finding* coarse_latency =
      find_proof(coarse, ProofKind::kInteractiveLatency, "a");
  ASSERT_NE(coarse_latency, nullptr);
  // Window still drops (probes cut it regardless of granularity):
  // 14800 + 0 + 200 + 4 x 14800 = 74200us <= the monolithic 74700us.
  EXPECT_DOUBLE_EQ(coarse_latency->worst_case_us, 74200.0);
  EXPECT_LE(coarse_latency->worst_case_us, 74700.0);
}

// SharedDevice admits a pass's lead sub-batch whole, so with max_batch 8
// over max_pass_samples 4 one 8-sample sub-batch is a single 800us pass.
// Blocking is that pass and the probe's own ride is another:
// 800 + 0 + 0 + 1 x 800 = 1600us. Preemptible at 200us: blocking is one
// 200us chunk and the ride is a chunk plus the whole sub-batch, capped by
// the pass: 200 + min(800, 200 + 800) = 1000us. Pricing either at the
// 4-sample pass cap (800us and 600us) under-covers the device.
TEST(Capacity, PassLargerThanMaxPassSamplesIsPriced) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 10.0;
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_deadline_us = 1e6;
  ReplicaFacts r;
  r.device = r.device_key = "pu";
  r.shared = true;
  r.sample_us = 100.0;
  r.max_batch = 8;
  r.queue_capacity = 64;
  r.max_pass_samples = 4;
  m.replicas.push_back(r);

  const Finding* latency = nullptr;
  const analysis::CapacityReport monolithic = analysis::analyze_capacity({m});
  latency = find_proof(monolithic, ProofKind::kInteractiveLatency, "m");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->worst_case_us, 1600.0);

  m.replicas.back().preempt_granularity_us = 200.0;
  const analysis::CapacityReport chunked = analysis::analyze_capacity({m});
  latency = find_proof(chunked, ProofKind::kInteractiveLatency, "m");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->worst_case_us, 1000.0);
}

// Time-sliced baseline (cobatch off): blocking is one sub-batch pass
// (4 x 400 + 1000 = 2600us), no coalesce window, and a ride waits a full
// round-robin sweep over both tenants (2 x 2600 = 5200us).
TEST(Capacity, TimeSlicedPuUsesSweepNotPass) {
  ModelFacts a;
  a.model = "a";
  a.envelope.arrival_rps = 10.0;
  a.envelope.interactive_fraction = 1.0;
  a.envelope.interactive_burst = 4;
  a.replicas.push_back(shared_tenant());
  a.replicas[0].cobatch = false;

  ModelFacts b;
  b.model = "b";
  b.replicas.push_back(shared_tenant());
  b.replicas[0].cobatch = false;

  // Worst case = 2600 (blocking) + 0 (no window) + 200 (wait)
  //              + ceil(4/4) x 5200 (sweep) = 8000us.
  a.envelope.interactive_deadline_us = 8000.0;
  EXPECT_TRUE(analysis::analyze_capacity({a, b}).feasible());
  a.envelope.interactive_deadline_us = 7999.0;
  EXPECT_FALSE(analysis::analyze_capacity({a, b}).feasible());
}

// ---- hand-computed bounds: heterogeneous placement --------------------------

// {1x, 3x} devices: normalized-work routing splits 400 rps as 100/300, so
// both devices carry 30000 busy us/s; the interactive bound must hold on
// the *slow* device too (routing may pick it under transient load).
TEST(Capacity, HeteroSplitsRateBySpeedAndBoundsTheSlowDevice) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 400.0;
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_burst = 1;
  m.envelope.interactive_deadline_us = 2400.0;

  ReplicaFacts slow = dedicated_replica("m/dev0#r0");
  slow.sample_us = 300.0;
  slow.speed_factor = 1.0;
  slow.max_wait_us = 0;
  ReplicaFacts fast = dedicated_replica("m/dev1#r1");
  fast.device = "dev1";
  fast.sample_us = 100.0;
  fast.speed_factor = 3.0;
  fast.max_wait_us = 0;
  m.replicas = {slow, fast};

  const analysis::CapacityReport report = analysis::analyze_capacity({m});
  ASSERT_TRUE(report.feasible()) << report.table("hetero");

  double max_latency = 0.0;
  std::size_t latency_findings = 0;
  for (const Finding& f : report.findings) {
    if (f.proof == ProofKind::kUtilization) {
      EXPECT_DOUBLE_EQ(f.worst_case_us, 30000.0) << "device " << f.device;
    }
    if (f.proof == ProofKind::kInteractiveLatency) {
      ++latency_findings;
      max_latency = std::max(max_latency, f.worst_case_us);
    }
  }
  // One bound per device; the slow one dominates: 2 x (4 x 300) = 2400us.
  EXPECT_EQ(latency_findings, 2u);
  EXPECT_DOUBLE_EQ(max_latency, 2400.0);

  m.envelope.interactive_deadline_us = 2399.0;
  EXPECT_FALSE(analysis::analyze_capacity({m}).feasible());
}

// ---- instability, batch lane, queue overflow --------------------------------

TEST(Capacity, OverloadIsViolatedUtilizationAndUnboundedLatency) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 20000.0;  // 20000 x 100us = 2e6 us/s: rho = 2
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_deadline_us = 1e9;  // no finite budget can help
  m.replicas.push_back(dedicated_replica());

  const analysis::CapacityReport report = analysis::analyze_capacity({m});
  EXPECT_FALSE(report.feasible());
  EXPECT_GE(report.unbounded_count(), 1u);

  const Finding* util = find_proof(report, ProofKind::kUtilization);
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->verdict, Verdict::kViolated);
  const Finding* latency =
      find_proof(report, ProofKind::kInteractiveLatency, "m");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->verdict, Verdict::kUnbounded);
}

// Batch-lane floor: best service of one kBatch sub-batch =
// 400 (blocking) + 200 (wait) + 400 (own batch) = 1000us. A smaller
// deadline starves the lane no matter the arrival rate.
TEST(Capacity, BatchLaneStarvationAndQuotaOccupancy) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 1000.0;
  m.envelope.interactive_fraction = 0.0;  // pure batch
  m.envelope.batch_deadline_us = 1000.0;
  m.replicas.push_back(dedicated_replica());

  const analysis::CapacityReport at_floor = analysis::analyze_capacity({m});
  const Finding* batch =
      find_proof(at_floor, ProofKind::kBatchFeasibility, "m");
  ASSERT_NE(batch, nullptr);
  EXPECT_DOUBLE_EQ(batch->worst_case_us, 1000.0);
  EXPECT_EQ(batch->verdict, Verdict::kProven);

  m.envelope.batch_deadline_us = 999.0;
  EXPECT_FALSE(analysis::analyze_capacity({m}).feasible());

  // Little's law: 1000 rps x 1000us floor needs 1 request in flight;
  // 2000 rps needs 2 — a quota of 1 sheds half the declared rate.
  m.envelope.batch_deadline_us = 1000.0;
  m.batch_quota = 1;
  EXPECT_TRUE(analysis::analyze_capacity({m}).feasible());
  m.envelope.arrival_rps = 2000.0;
  const analysis::CapacityReport quota = analysis::analyze_capacity({m});
  EXPECT_FALSE(quota.feasible());
}

TEST(Capacity, QueueOverflowCountsSlotsAcrossOneStall) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 10000.0;
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_burst = 8;
  m.envelope.interactive_deadline_us = 1e6;
  m.replicas.push_back(dedicated_replica());
  m.replicas[0].sample_us = 5.0;  // rho = 0.05: stable, queue is the issue
  m.replicas[0].max_wait_us = 0;
  // Stall = 4 x 5 = 20us; needed = ceil(10000 x 20 / 1e6 + 8) = 9 slots.
  m.replicas[0].queue_capacity = 9;
  EXPECT_TRUE(analysis::analyze_capacity({m}).feasible());
  m.replicas[0].queue_capacity = 8;
  const analysis::CapacityReport report = analysis::analyze_capacity({m});
  EXPECT_FALSE(report.feasible());
  const Finding* queue = find_proof(report, ProofKind::kQueueCapacity, "m");
  ASSERT_NE(queue, nullptr);
  EXPECT_DOUBLE_EQ(queue->worst_case_us, 9.0);
  EXPECT_DOUBLE_EQ(queue->budget_us, 8.0);
}

// ---- degenerate sweep -------------------------------------------------------

TEST(Capacity, DegenerateEnvelopesAreVacuouslyFeasible) {
  // No models at all.
  EXPECT_TRUE(analysis::analyze_capacity({}).feasible());
  EXPECT_TRUE(analysis::analyze_capacity({}).findings.empty());

  // A placement with no declared envelope carries no obligations.
  ModelFacts undeclared;
  undeclared.model = "quiet";
  undeclared.replicas.push_back(dedicated_replica());
  const analysis::CapacityReport none = analysis::analyze_capacity({undeclared});
  EXPECT_TRUE(none.feasible());
  EXPECT_TRUE(none.findings.empty());

  // Zero rate with a declared deadline: latency obligations still hold
  // (a probe-only model wants its bound proven), utilization is zero.
  ModelFacts probes;
  probes.model = "probe";
  probes.envelope.interactive_deadline_us = 1400.0;
  probes.envelope.interactive_burst = 8;
  probes.replicas.push_back(dedicated_replica());
  const analysis::CapacityReport zero_rate =
      analysis::analyze_capacity({probes});
  EXPECT_TRUE(zero_rate.feasible()) << zero_rate.table("probe");
  const Finding* util = find_proof(zero_rate, ProofKind::kUtilization);
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->worst_case_us, 0.0);
  ASSERT_NE(find_proof(zero_rate, ProofKind::kInteractiveLatency, "probe"),
            nullptr);

  // A model with no replicas: nothing to prove, nothing to crash on.
  ModelFacts empty;
  empty.model = "empty";
  empty.envelope.arrival_rps = 10.0;
  EXPECT_TRUE(analysis::analyze_capacity({empty}).feasible());
}

TEST(Capacity, ReportRendersTableAndSummary) {
  ModelFacts m;
  m.model = "m";
  m.envelope.arrival_rps = 100.0;
  m.envelope.interactive_fraction = 1.0;
  m.envelope.interactive_burst = 8;
  m.envelope.interactive_deadline_us = 1399.0;
  m.replicas.push_back(dedicated_replica());
  const analysis::CapacityReport report = analysis::analyze_capacity({m});

  const std::string table = report.table("bounds");
  EXPECT_NE(table.find("interactive_latency"), std::string::npos);
  EXPECT_NE(table.find("VIOLATED"), std::string::npos);
  EXPECT_NE(report.summary().find("INFEASIBLE"), std::string::npos);

  m.envelope.interactive_deadline_us = 1400.0;
  const std::string ok = analysis::analyze_capacity({m}).summary();
  EXPECT_NE(ok.find("feasible"), std::string::npos);
}

// ---- single source of truth: engine == router == analyzer -------------------

// Park N requests in a live engine and check the admission estimate is
// exactly committed_delay_us(N, sample_us, cross_backlog) — and that the
// router (min over the set's replicas) reports the same number. The
// analyzer builds every bound from the same function, so all three price
// identically by construction.
TEST(Capacity, EngineRouterAndAnalyzerShareOneCostFormula) {
  const hw::QNetDesc qnet = make_test_qnet(901);
  ModelServer server;
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 1;
  // Park batch formation so submissions stay outstanding and countable.
  config.max_batch = 256;
  config.max_wait_us = 300'000;
  server.deploy("m", {qnet}, config);

  const std::shared_ptr<InferenceEngine> engine = server.engine("m");
  ASSERT_NE(engine, nullptr);
  EXPECT_DOUBLE_EQ(engine->estimated_queue_delay_us(), 0.0);

  util::Rng rng{902};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  const double expected = analysis::committed_delay_us(
      5.0, engine->simulated_sample_us(),
      engine->backend().cross_tenant_backlog_us());
  EXPECT_DOUBLE_EQ(engine->estimated_queue_delay_us(), expected);
  EXPECT_DOUBLE_EQ(engine->backend().cross_tenant_backlog_us(), 0.0)
      << "dedicated backend: no cross-tenant term";
  EXPECT_DOUBLE_EQ(server.replica_set("m")->estimated_queue_delay_us(),
                   expected);

  server.shutdown();
  for (auto& future : futures) (void)future.get();
}

// ---- live facts extraction --------------------------------------------------

TEST(Capacity, ReplicaSetFactsMatchTheLiveDeployment) {
  const hw::QNetDesc qnet = make_test_qnet(903);
  SharedDeviceConfig pu_config;
  pu_config.max_pass_samples = 32;
  pu_config.coalesce_window_us = 500;
  pu_config.model_switch_us = 1000.0;
  pu_config.preempt_granularity_us = 2000.0;
  pu_config.paced = false;  // logits-only here; no wall pacing needed
  DeviceSpec pu_spec;
  pu_spec.name = "pu0";
  auto pu = SharedDevice::create(pu_spec, pu_config);

  ModelServer server;
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 1;
  config.max_batch = 4;
  config.max_wait_us = 200;
  config.placement = {DeviceSpec::on(pu), DeviceSpec::on(pu)};
  config.envelope.arrival_rps = 10.0;
  config.envelope.interactive_fraction = 1.0;
  config.envelope.warn_only = true;
  config.batch_quota = 7;
  server.deploy("m", {qnet}, config);

  const std::shared_ptr<ReplicaSet> set = server.replica_set("m");
  ASSERT_NE(set, nullptr);
  const ModelFacts facts = set->capacity_facts();
  EXPECT_EQ(facts.model, "m");
  EXPECT_EQ(facts.batch_quota, 7u);
  EXPECT_DOUBLE_EQ(facts.envelope.arrival_rps, 10.0);
  ASSERT_EQ(facts.replicas.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ReplicaFacts& r = facts.replicas[i];
    EXPECT_TRUE(r.shared);
    EXPECT_EQ(r.device_key, "pu0") << "both tenants share one PU";
    // The analyzer prices with the identical number admission uses.
    EXPECT_DOUBLE_EQ(r.sample_us,
                     set->replica(i)->simulated_sample_us());
    EXPECT_DOUBLE_EQ(r.switch_us, 1000.0);
    EXPECT_EQ(r.max_pass_samples, 32u);
    EXPECT_EQ(r.coalesce_window_us, 500);
    EXPECT_DOUBLE_EQ(r.preempt_granularity_us, 2000.0);
    EXPECT_EQ(r.max_batch, 4u);
    EXPECT_EQ(r.max_wait_us, 200);
  }

  // A dedicated deployment gets per-replica keys (private hardware).
  DeployConfig dedicated;
  dedicated.in_c = 3;
  dedicated.in_h = dedicated.in_w = 16;
  dedicated.workers = 1;
  dedicated.placement.assign(2, dedicated.device);
  server.deploy("d", {qnet}, dedicated);
  const ModelFacts dfacts = server.replica_set("d")->capacity_facts();
  ASSERT_EQ(dfacts.replicas.size(), 2u);
  EXPECT_FALSE(dfacts.replicas[0].shared);
  EXPECT_NE(dfacts.replicas[0].device_key, dfacts.replicas[1].device_key);
  server.shutdown();
}

// ---- the deploy() gate ------------------------------------------------------

TEST(Capacity, DeployRejectsInfeasibleEnvelopeTyped) {
  const hw::QNetDesc qnet = make_test_qnet(904);
  ModelServer server;
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 1;
  config.envelope.arrival_rps = 10.0;
  config.envelope.interactive_fraction = 1.0;
  // One microsecond: smaller than any device pass, provably infeasible.
  config.envelope.interactive_deadline_us = 1.0;

  try {
    server.deploy("m", {qnet}, config);
    FAIL() << "infeasible envelope must be rejected";
  } catch (const DeployError& error) {
    EXPECT_EQ(error.code(), StatusCode::kInfeasibleSlo);
    EXPECT_NE(std::string(error.what()).find("INFEASIBLE"),
              std::string::npos);
  }
  // Rejected before publication: the name was never deployed.
  EXPECT_EQ(server.engine("m"), nullptr);
  EXPECT_EQ(server.model_count(), 0u);

  // warn_only: the same placement deploys; the report stays visible.
  config.envelope.warn_only = true;
  const ModelHandle handle = server.deploy("m", {qnet}, config);
  // The rejected attempt burned version 1 (versions stay monotonic).
  EXPECT_EQ(handle.version, 2u);
  EXPECT_NE(server.engine("m"), nullptr);
  const analysis::CapacityReport report = server.capacity_report();
  EXPECT_FALSE(report.feasible());
  EXPECT_GE(report.violated_count(), 1u);
  server.shutdown();
}

TEST(Capacity, DeployAcceptsFeasibleEnvelopeAndRejectsSloBreakingTenant) {
  const hw::QNetDesc qnet = make_test_qnet(905);
  SharedDeviceConfig pu_config;
  pu_config.max_pass_samples = 8;
  pu_config.coalesce_window_us = 200;
  pu_config.model_switch_us = 1000.0;
  pu_config.paced = false;
  auto pu = SharedDevice::create(DeviceSpec{}, pu_config);

  // Price one tenant's sample cost the same way the analyzer will.
  const SimulatedAcceleratorBackend probe(
      {qnet}, hw::AcceleratorConfig{}, pu->spec(), 3, 16, 16);
  const double s = probe.sample_us();

  // Alone: blocking = 8 x s + 1000; worst = 2 x blocking + 200 + 200.
  // With a second tenant: blocking grows by its reload (+1000), so worst
  // grows by 2000. A budget between the two admits the first deployment
  // and proves the second would break it.
  const double alone = 2.0 * (8.0 * s + 1000.0) + 400.0;
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.workers = 1;
  config.max_batch = 4;
  config.max_wait_us = 200;
  config.placement = {DeviceSpec::on(pu)};
  config.envelope.arrival_rps = 5.0;
  config.envelope.interactive_fraction = 1.0;
  config.envelope.interactive_burst = 1;
  config.envelope.interactive_deadline_us = alone + 1000.0;

  ModelServer server;
  server.deploy("a", {qnet}, config);  // feasible: must not throw
  EXPECT_TRUE(server.capacity_report().feasible());

  // A new envelope-less tenant on the same PU adds 1000us of blocking to
  // model a's proven bound — past its budget, so *this* deploy is refused.
  DeployConfig neighbour;
  neighbour.in_c = 3;
  neighbour.in_h = neighbour.in_w = 16;
  neighbour.workers = 1;
  neighbour.max_batch = 4;
  neighbour.max_wait_us = 200;
  neighbour.placement = {DeviceSpec::on(pu)};
  try {
    server.deploy("b", {qnet}, neighbour);
    FAIL() << "tenant breaking a neighbour's proven SLO must be rejected";
  } catch (const DeployError& error) {
    EXPECT_EQ(error.code(), StatusCode::kInfeasibleSlo);
  }
  EXPECT_EQ(server.engine("b"), nullptr);
  // Model a is untouched and still proven.
  EXPECT_NE(server.engine("a"), nullptr);
  EXPECT_TRUE(server.capacity_report().feasible());
  server.shutdown();
}

}  // namespace
}  // namespace mfdfp::serve
