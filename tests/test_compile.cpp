// The deploy-time compiler (src/compile): pass pipeline, plan cache, and
// plan executor. The load-bearing contract is bit-identity — a compiled
// plan's logits must equal the reference AcceleratorExecutor::run() exactly,
// under every pass ablation and every edge geometry — plus the sharing
// semantics: plans are immutable, cached per (content, device class), and
// stay valid for in-flight holders across eviction and hot redeploys. Runs
// under ThreadSanitizer and ASan+UBSan in CI (see ci.yml).
#include "compile/passes.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compile/plan_cache.hpp"
#include "compile/plan_executor.hpp"
#include "core/ensemble.hpp"
#include "core/hw_eval.hpp"
#include "hw/cycle_model.hpp"
#include "hw/executor.hpp"
#include "hw/layer_profile.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/fully_connected.hpp"
#include "nn/pooling.hpp"
#include "nn/zoo.hpp"
#include "serve/server.hpp"

namespace mfdfp::compile {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 16, kInW = 16;

hw::QNetDesc qnet_from_net(nn::Network net, util::Rng& rng,
                           const std::string& name) {
  Tensor calibration{Shape{6, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, name);
}

hw::QNetDesc make_zoo_qnet(std::uint64_t seed, const std::string& arch,
                           const std::string& name = "net") {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = [&] {
    if (arch == "cifar") return nn::make_cifar10_net(config, rng);
    if (arch == "alexnet") return nn::make_alexnet_mini(config, rng);
    return nn::make_mlp(config, 12, rng);
  }();
  return qnet_from_net(std::move(net), rng, name);
}

Tensor make_images(std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  Tensor images{Shape{count, kInC, kInH, kInW}};
  images.fill_uniform(rng, -1.0f, 1.0f);
  return images;
}

/// The contract every plan must meet: logits bit-identical to the reference
/// executor on the same desc.
void expect_bit_identical(const hw::QNetDesc& desc, const Tensor& images,
                          const CompileOptions& options,
                          const char* context) {
  const auto plan = compile_qnet(desc, kInC, kInH, kInW, options);
  hw::ExecScratch scratch;
  const Tensor compiled = run_plan_batch(*plan, images, scratch);

  const hw::AcceleratorExecutor executor(desc);
  const Tensor reference = executor.run(images);

  ASSERT_EQ(compiled.shape(), reference.shape()) << context;
  EXPECT_EQ(tensor::max_abs_diff(compiled, reference), 0.0f)
      << context << ": compiled plan diverged from run()";
}

// ---------------------------------------------------------------- passes

TEST(PassPipeline, StandardPipelineLowersOneStepPerLayer) {
  const hw::QNetDesc desc = make_zoo_qnet(1, "cifar");
  const auto plan = compile_qnet(desc, kInC, kInH, kInW);

  const std::vector<std::string> expected{"specialize", "tables", "verify",
                                          "analyze"};
  EXPECT_EQ(plan->passes_run, expected);

  // Every desc layer lowers to exactly one step, in source order — the
  // profiler records each step's host time against that one layer.
  ASSERT_EQ(plan->stats.steps, desc.layers.size());
  for (std::size_t i = 0; i < plan->steps.size(); ++i) {
    EXPECT_EQ(plan->steps[i].source_layer, i);
  }

  // describe() names every step's source layer and conv variant.
  const std::string description = plan->describe();
  EXPECT_NE(description.find("src=L0"), std::string::npos);
  EXPECT_NE(description.find("generic"), std::string::npos);
}

TEST(PassPipeline, AblatedPassesAreNotRun) {
  const hw::QNetDesc desc = make_zoo_qnet(2, "cifar");
  CompileOptions options;
  options.specialize = false;
  options.analyze = false;
  const auto plan = compile_qnet(desc, kInC, kInH, kInW, options);

  const std::vector<std::string> expected{"tables", "verify"};
  EXPECT_EQ(plan->passes_run, expected);
  EXPECT_EQ(plan->stats.specialized, 0u);
  EXPECT_EQ(plan->stats.steps, desc.layers.size());
}

TEST(PassPipeline, ContentHashIgnoresTheModelName) {
  const hw::QNetDesc a = make_zoo_qnet(4, "cifar", "alpha");
  const hw::QNetDesc b = make_zoo_qnet(4, "cifar", "beta");
  const hw::QNetDesc c = make_zoo_qnet(5, "cifar", "alpha");
  EXPECT_EQ(qnet_content_hash(a), qnet_content_hash(b));
  EXPECT_NE(qnet_content_hash(a), qnet_content_hash(c));
}

TEST(PassVerifier, RejectsCorruptedPlans) {
  const hw::QNetDesc desc = make_zoo_qnet(6, "cifar");
  CompiledPlan plan = lower_qnet(desc, kInC, kInH, kInW);
  pass_specialize(plan);
  pass_build_tables(desc, plan);
  EXPECT_NO_THROW(pass_verify(plan));

  {  // truncated weight table
    CompiledPlan broken = plan;
    broken.steps.front().weights.pop_back();
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
  {  // radix chain break
    CompiledPlan broken = plan;
    broken.steps.front().out_frac += 1;
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
  {  // gather tap out of bounds
    CompiledPlan broken = plan;
    broken.steps.front().gather.front() = kInC * kInH * kInW + 1;
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
  {  // geometry drift
    CompiledPlan broken = plan;
    broken.steps.front().out_h += 1;
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
}

// ----------------------------------------------------------- bit-identity

struct IdentityCase {
  std::uint64_t seed;
  const char* architecture;
};

class CompiledBitIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(CompiledBitIdentity, EveryAblationMatchesTheReferenceExecutor) {
  const auto [seed, architecture] = GetParam();
  const hw::QNetDesc desc = make_zoo_qnet(seed, architecture);
  const Tensor images = make_images(5, seed + 100);

  CompileOptions defaults;
  expect_bit_identical(desc, images, defaults, "defaults");

  CompileOptions no_spec;
  no_spec.specialize = false;
  expect_bit_identical(desc, images, no_spec, "specialization off");
}

// The width-0.2 zoo nets have convs with few output channels: every conv
// runs im2col, so these cases pin im2col on small out_c too.
INSTANTIATE_TEST_SUITE_P(
    SeedsAndArchitectures, CompiledBitIdentity,
    ::testing::Values(IdentityCase{21, "cifar"}, IdentityCase{22, "alexnet"},
                      IdentityCase{23, "mlp"}, IdentityCase{24, "cifar"}));

// --------------------------------------------------------- edge geometries

// The 6- and 5-channel convs below are far narrower than any serving
// model: they pin im2col (the only conv algorithm) on small out_c.
TEST(EdgeGeometry, OneByOneConvStrideOneAndTwo) {
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    util::Rng rng{30 + stride};
    nn::Network net;
    net.add(std::make_unique<nn::Conv2D>(
        nn::Conv2D::Config{kInC, 6, 1, stride, 0}, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::Flatten>());
    const std::size_t out_hw = (kInH - 1) / stride + 1;
    net.add(std::make_unique<nn::FullyConnected>(
        nn::FullyConnected::Config{6 * out_hw * out_hw, 4}, rng));
    const hw::QNetDesc desc = qnet_from_net(std::move(net), rng, "conv1x1");

    const auto plan = compile_qnet(desc, kInC, kInH, kInW);
    // pad == 0: SupportsGeometry selects the no-padding fast variant.
    EXPECT_EQ(plan->steps.front().no_pad, true);
    EXPECT_GE(plan->stats.specialized, 1u);
    expect_bit_identical(desc, make_images(4, 31), {}, "1x1 conv");
  }
}

TEST(EdgeGeometry, HeavyPaddingFallsBackToTheGenericKernel) {
  util::Rng rng{33};
  nn::Network net;
  // pad 2 on a 3x3 kernel: output ring is mostly padded taps.
  net.add(std::make_unique<nn::Conv2D>(nn::Conv2D::Config{kInC, 5, 3, 1, 2},
                                       rng));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::FullyConnected>(
      nn::FullyConnected::Config{5 * (kInH + 2) * (kInW + 2), 4}, rng));
  const hw::QNetDesc desc = qnet_from_net(std::move(net), rng, "heavypad");

  const auto plan = compile_qnet(desc, kInC, kInH, kInW);
  EXPECT_EQ(plan->steps.front().no_pad, false);
  EXPECT_EQ(plan->stats.specialized, 0u);
  expect_bit_identical(desc, make_images(4, 34), {}, "heavy padding");
}

TEST(EdgeGeometry, PoolWindowsThatDoNotTileEvenly) {
  util::Rng rng{35};
  nn::Network net;
  net.add(std::make_unique<nn::Conv2D>(nn::Conv2D::Config{kInC, 5, 3, 1, 1},
                                       rng));
  net.add(std::make_unique<nn::ReLU>());
  // 16x16 map, window 3 stride 2: (16-3)/2+1 = 7 — the last column/row of
  // windows stops short of the edge.
  net.add(std::make_unique<nn::MaxPool2D>(nn::PoolConfig{3, 2, 0}));
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::FullyConnected>(
      nn::FullyConnected::Config{5 * 7 * 7, 4}, rng));
  const hw::QNetDesc desc = qnet_from_net(std::move(net), rng, "unevenpool");

  const auto plan = compile_qnet(desc, kInC, kInH, kInW);
  bool saw_pool = false;
  for (const PlanStep& step : plan->steps) {
    if (step.kind == StepKind::kPool) {
      saw_pool = true;
      EXPECT_EQ(step.out_h, 7u);
      EXPECT_EQ(step.out_w, 7u);
    }
  }
  EXPECT_TRUE(saw_pool);
  expect_bit_identical(desc, make_images(4, 36), {}, "uneven pool tiling");
}

TEST(EdgeGeometry, PaddedPoolWindows) {
  util::Rng rng{37};
  nn::Network net;
  net.add(std::make_unique<nn::Conv2D>(nn::Conv2D::Config{kInC, 5, 3, 1, 1},
                                       rng));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::AvgPool2D>(nn::PoolConfig{2, 2, 1}));
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::FullyConnected>(
      nn::FullyConnected::Config{5 * 9 * 9, 4}, rng));
  const hw::QNetDesc desc = qnet_from_net(std::move(net), rng, "paddedpool");
  expect_bit_identical(desc, make_images(4, 38), {}, "padded pool");
}

TEST(EdgeGeometry, PoolBeforeActivationKeepsTheStageOrder) {
  util::Rng rng{39};
  nn::Network net;
  net.add(std::make_unique<nn::Conv2D>(nn::Conv2D::Config{kInC, 5, 3, 1, 1},
                                       rng));
  net.add(std::make_unique<nn::MaxPool2D>(nn::PoolConfig{2, 2, 0}));
  net.add(std::make_unique<nn::ReLU>());
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::FullyConnected>(
      nn::FullyConnected::Config{5 * 8 * 8, 4}, rng));
  const hw::QNetDesc desc = qnet_from_net(std::move(net), rng, "poolfirst");

  const auto plan = compile_qnet(desc, kInC, kInH, kInW);
  // The pool precedes the ReLU: the plan keeps that order, so the
  // activation sees the pooled map and the math matches exactly.
  ASSERT_GE(plan->steps.size(), 3u);
  EXPECT_EQ(plan->steps[1].kind, StepKind::kPool);
  EXPECT_EQ(plan->steps[2].kind, StepKind::kRelu);
  expect_bit_identical(desc, make_images(4, 40), {}, "pool before relu");
}

// ------------------------------------------------------------- plan cache

TEST(PlanCache, SharesByContentAndEvictedPlansKeepServing) {
  const hw::QNetDesc desc_a = make_zoo_qnet(50, "cifar", "a");
  const hw::QNetDesc desc_a2 = make_zoo_qnet(50, "cifar", "renamed");
  const hw::QNetDesc desc_b = make_zoo_qnet(51, "mlp", "b");

  PlanCache cache(1);  // LRU bound of one entry
  const auto plan_a = cache.get_or_compile(desc_a, kInC, kInH, kInW, "sf=1",
                                           CompileOptions{});
  // Identical content under a different name: a hit, the same artifact.
  const auto plan_a2 = cache.get_or_compile(desc_a2, kInC, kInH, kInW,
                                            "sf=1", CompileOptions{});
  EXPECT_EQ(plan_a.get(), plan_a2.get());
  // A different device class compiles its own entry (and evicts at bound 1).
  const auto plan_fast = cache.get_or_compile(desc_a, kInC, kInH, kInW,
                                              "sf=2", CompileOptions{});
  EXPECT_NE(plan_a.get(), plan_fast.get());
  const auto plan_b = cache.get_or_compile(desc_b, kInC, kInH, kInW, "sf=1",
                                           CompileOptions{});

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);

  // The evicted plan is pinned by our shared_ptr and still executes,
  // bit-identically — eviction only dropped the cache's own reference.
  const Tensor images = make_images(3, 52);
  hw::ExecScratch scratch;
  const Tensor compiled = run_plan_batch(*plan_a, images, scratch);
  const hw::AcceleratorExecutor executor(desc_a);
  EXPECT_EQ(tensor::max_abs_diff(compiled, executor.run(images)), 0.0f);
  (void)plan_b;
}

TEST(PlanCache, ReplicasAndRenamedDeploymentsShareOnePlan) {
  const hw::QNetDesc desc = make_zoo_qnet(53, "cifar", "shared");

  serve::ModelServer server;
  serve::DeployConfig config;
  config.in_c = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.workers = 1;
  config.num_replicas = 2;
  server.deploy("first", {desc}, config);

  // Two replicas, one compilation.
  PlanCacheStats stats = server.plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // Same content under another deployment name: another hit, zero compiles.
  config.num_replicas = 1;
  server.deploy("second", {desc}, config);
  stats = server.plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);

  const auto* backend_first =
      dynamic_cast<const serve::SimulatedAcceleratorBackend*>(
          &server.engine("first")->backend());
  const auto* backend_second =
      dynamic_cast<const serve::SimulatedAcceleratorBackend*>(
          &server.engine("second")->backend());
  ASSERT_NE(backend_first, nullptr);
  ASSERT_NE(backend_second, nullptr);
  ASSERT_NE(backend_first->plan(), nullptr);
  EXPECT_EQ(backend_first->plan().get(), backend_second->plan().get());
}

// A hot-redeploy storm must never evict or mutate
// the plan pinned by in-flight requests of an old version — every response
// resolves kOk with bit-identical logits, regardless of how many newer
// versions (and cache clears) land mid-flight.
TEST(PlanCache, HotRedeployStormKeepsPinnedPlansServing) {
  const hw::QNetDesc desc = make_zoo_qnet(56, "cifar", "storm");
  const hw::AcceleratorExecutor reference(desc);

  serve::ModelServer server;
  serve::DeployConfig config;
  config.in_c = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.workers = 1;
  config.max_batch = 4;
  config.max_wait_us = 200;
  server.deploy("storm", {desc}, config);

  util::Rng rng{57};
  constexpr std::size_t kRequests = 48;
  std::vector<Tensor> samples;
  std::vector<std::future<serve::Response>> futures;
  samples.reserve(kRequests);
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    Tensor image{Shape{1, kInC, kInH, kInW}};
    image.fill_uniform(rng, -1.0f, 1.0f);
    samples.push_back(image);
    futures.push_back(server.submit("storm", std::move(image)));
    if (i % 8 == 3) {
      // Redeploy mid-flight; identical content, so the cache hits and the
      // new version shares the same immutable plan the old one pinned.
      server.deploy("storm", {desc}, config);
    }
    if (i % 16 == 11) {
      // Even dropping every cache entry must not disturb pinned plans.
      server.plan_cache()->clear();
    }
  }

  std::uint32_t max_version = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::Response response = futures[i].get();
    ASSERT_EQ(response.status, serve::StatusCode::kOk) << response.detail;
    max_version = std::max(max_version, response.model_version);
    EXPECT_EQ(tensor::max_abs_diff(response.logits,
                                   reference.run(samples[i])),
              0.0f)
        << "request " << i << " served by version "
        << response.model_version;
  }
  EXPECT_GT(max_version, 1u);  // the storm really spanned versions
  // Identical content across the storm: exactly one compilation ever ran
  // per cache generation (clear() resets entries, not correctness).
  EXPECT_GE(server.plan_cache()->stats().hits, 1u);
}

// ---------------------------------------------------------------- profiler

TEST(CompiledProfile, EveryLayerIsMeasuredAndReconcilesWithTheCycleModel) {
  const hw::QNetDesc desc = make_zoo_qnet(60, "cifar");
  const hw::AcceleratorConfig accel;
  hw::LayerProfiler profiler(desc, kInC, kInH, kInW, accel);

  const auto plan = compile_qnet(desc, kInC, kInH, kInW);
  const Tensor images = make_images(6, 61);
  hw::ExecScratch scratch;
  const Tensor logits = run_plan_batch(*plan, images, scratch, &profiler);

  const hw::LayerProfile profile = profiler.snapshot();
  EXPECT_EQ(profile.passes, 1u);
  EXPECT_EQ(profile.samples, 6u);

  // Modeled cycles are per source layer: bit-exact against CycleReport.
  const hw::CycleReport cycles =
      hw::count_cycles(hw::workload_from_qnet(desc, kInC, kInH, kInW), accel);
  EXPECT_EQ(profile.cycles_per_sample_total, cycles.total_cycles);
  EXPECT_EQ(profile.cycles_total, 6u * cycles.total_cycles);

  std::uint64_t row_sum = 0;
  for (const hw::LayerProfileRow& row : profile.rows) {
    row_sum += row.cycles_per_sample;
  }
  EXPECT_EQ(row_sum, cycles.total_cycles);

  // One step per non-flatten row: every row's host time is that step's
  // own measurement — ReLU and pool rows included, none apportioned.
  std::size_t measured_steps = 0;
  for (const PlanStep& step : plan->steps) {
    if (step.kind != StepKind::kFlatten) ++measured_steps;
  }
  ASSERT_EQ(profile.rows.size(), measured_steps);
  std::uint64_t host_sum = 0;
  for (const hw::LayerProfileRow& row : profile.rows) {
    EXPECT_GT(row.host_ns_total, 0u) << row.name;
    host_sum += row.host_ns_total;
  }
  EXPECT_EQ(host_sum, profile.host_ns_total);

  // Profiling never perturbs the math.
  hw::ExecScratch scratch2;
  const Tensor unprofiled = run_plan_batch(*plan, images, scratch2);
  EXPECT_EQ(tensor::max_abs_diff(logits, unprofiled), 0.0f);
}

// -------------------------------------------------------- eval fast path

TEST(CompiledEval, MatchesTheFakeQuantizedFloatEnsembleExactly) {
  util::Rng rng{70};
  nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;

  core::EnsembleResult ensemble;
  for (std::uint64_t m = 0; m < 2; ++m) {
    core::ConversionResult member;
    member.network = nn::make_cifar10_net(config, rng);
    Tensor calibration{Shape{6, kInC, kInH, kInW}};
    calibration.fill_uniform(rng, -1.0f, 1.0f);
    member.spec = quant::quantize_network(member.network, calibration);
    ensemble.members.push_back(std::move(member));
  }

  const Tensor images = make_images(30, 71);
  std::vector<int> labels(30);
  util::Rng label_rng{72};
  for (int& label : labels) {
    label = static_cast<int>(label_rng.next_u64() % 5);
  }

  // The pre-compiler reference: fake-quantized float members evaluated on
  // inputs quantized with their shared input format.
  const Tensor quantized =
      quant::quantize_input(ensemble.members.front().spec, images);
  const std::vector<nn::Network*> nets = ensemble.member_networks();
  const nn::EvalResult reference =
      nn::evaluate_ensemble(nets, quantized, labels);

  // The compiled batched hardware path must agree exactly — same logits,
  // so same top-1/top-5 counts and the same accumulated loss.
  const nn::EvalResult compiled =
      core::evaluate_mfdfp_ensemble(ensemble, images, labels);
  EXPECT_EQ(compiled.sample_count, reference.sample_count);
  EXPECT_EQ(compiled.top1, reference.top1);
  EXPECT_EQ(compiled.top5, reference.top5);
  EXPECT_EQ(compiled.mean_loss, reference.mean_loss);

  // Single-network flavour, against the plain evaluator.
  const hw::QNetDesc solo = core::extract_member_qnets(ensemble).front();
  const nn::EvalResult solo_ref =
      nn::evaluate(ensemble.members.front().network, quantized, labels);
  const nn::EvalResult solo_hw = core::evaluate_qnets_compiled(
      std::span<const hw::QNetDesc>(&solo, 1), images, labels);
  EXPECT_EQ(solo_hw.top1, solo_ref.top1);
  EXPECT_EQ(solo_hw.mean_loss, solo_ref.mean_loss);
}

}  // namespace
}  // namespace mfdfp::compile
