// The deploy-time compiler (src/compile): lowering, verification, plan
// cache, and plan executor. The load-bearing contract is bit-identity — a
// compiled plan's logits must equal the reference AcceleratorExecutor::run()
// exactly, under every edge geometry — plus the sharing
// semantics: plans are immutable, cached per (content, geometry), and
// stay valid for in-flight holders across eviction and hot redeploys. Runs
// under ThreadSanitizer and ASan+UBSan in CI (see ci.yml).
#include "compile/passes.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
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
#include "hw/kernels.hpp"
#include "hw/layer_profile.hpp"
#include "hw/qnet_io.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/fully_connected.hpp"
#include "nn/pooling.hpp"
#include "nn/zoo.hpp"
#include "quant/pow2.hpp"
#include "serve/server.hpp"

namespace mfdfp::compile {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 16, kInW = 16;

hw::QNetDesc qnet_from_net(nn::Network net, util::Rng& rng,
                           const std::string& name, std::size_t in_c = kInC,
                           std::size_t in_h = kInH, std::size_t in_w = kInW) {
  Tensor calibration{Shape{6, in_c, in_h, in_w}};
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
/// executor on the same desc, compiled for the images' geometry.
void expect_bit_identical(const hw::QNetDesc& desc, const Tensor& images,
                          const char* context) {
  const Shape& in = images.shape();
  const auto plan = compile_qnet(desc, in.c(), in.h(), in.w());
  hw::ExecScratch scratch;
  const Tensor compiled = run_plan_batch(*plan, images, scratch);

  const hw::AcceleratorExecutor executor(desc);
  const Tensor reference = executor.run(images);

  ASSERT_EQ(compiled.shape(), reference.shape()) << context;
  EXPECT_EQ(tensor::max_abs_diff(compiled, reference), 0.0f)
      << context << ": compiled plan diverged from run()";
}

// ----------------------------------------------------------- compilation

TEST(CompileQnet, LowersOneStepPerLayer) {
  const hw::QNetDesc desc = make_zoo_qnet(1, "cifar");
  const auto plan = compile_qnet(desc, kInC, kInH, kInW);

  // Every desc layer lowers to exactly one step, in source order — the
  // profiler records each step's host time against that one layer.
  ASSERT_EQ(plan->stats.steps, desc.layers.size());
  for (std::size_t i = 0; i < plan->steps.size(); ++i) {
    EXPECT_EQ(plan->steps[i].source_layer, i);
  }

  // describe() names every step's source layer and label.
  const std::string description = plan->describe();
  EXPECT_NE(description.find("src=L0"), std::string::npos);
  EXPECT_NE(description.find("conv5x5s1p2"), std::string::npos);

  // Every conv holds one kernel-length run-offset row, whatever its input
  // channels or output map; payload_bytes counts weights, bias and run
  // offsets.
  std::size_t payload = 0;
  for (const PlanStep& step : plan->steps) {
    if (step.kind == StepKind::kConv) {
      EXPECT_EQ(step.taps.size(), step.kernel);
    }
    payload += step.weights.size() * sizeof(std::int16_t) + step.bias.size() +
               step.taps.size() * sizeof(std::uint32_t);
  }
  EXPECT_EQ(plan->stats.payload_bytes, payload);
}

TEST(CompileQnet, ContentHashIgnoresTheModelName) {
  const hw::QNetDesc a = make_zoo_qnet(4, "cifar", "alpha");
  const hw::QNetDesc b = make_zoo_qnet(4, "cifar", "beta");
  const hw::QNetDesc c = make_zoo_qnet(5, "cifar", "alpha");
  EXPECT_EQ(qnet_content_hash(a), qnet_content_hash(b));
  EXPECT_NE(qnet_content_hash(a), qnet_content_hash(c));
}

TEST(PassVerifier, RejectsCorruptedPlans) {
  const hw::QNetDesc desc = make_zoo_qnet(6, "cifar");
  const CompiledPlan plan = lower_qnet(desc, kInC, kInH, kInW);
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
  {  // truncated run row
    CompiledPlan broken = plan;
    broken.steps.front().taps.pop_back();
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
  {  // the last run of the last window ends the padded sample exactly: one
     // code further reads out of bounds
    CompiledPlan broken = plan;
    broken.steps.front().taps.back() += 1;
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
  {  // geometry drift
    CompiledPlan broken = plan;
    broken.steps.front().out_h += 1;
    EXPECT_THROW(pass_verify(broken), std::runtime_error);
  }
}

// A zero-kernel conv or zero-window pool has no output the reference run()
// can produce (it throws): the compiler must refuse it at deploy time rather
// than serve a plan that diverges from run() or throws mid-batch.
TEST(CompileQnet, ZeroKernelConvAndZeroWindowPoolAreRejected) {
  hw::QNetDesc conv_desc;
  conv_desc.name = "conv0x0s1p0";
  hw::QConv conv;
  conv.in_c = 1;
  conv.out_c = 1;
  conv.kernel = 0;
  conv.stride = 1;
  conv.bias_codes = {0};
  conv_desc.layers.emplace_back(conv);
  EXPECT_THROW((void)compile_qnet(conv_desc, 1, 4, 4), std::invalid_argument);

  hw::QNetDesc pool_desc;
  pool_desc.name = "maxpool0s1";
  hw::QPool pool;
  pool.window = 0;
  pool.stride = 1;
  pool_desc.layers.emplace_back(pool);
  EXPECT_THROW((void)compile_qnet(pool_desc, 1, 4, 4), std::invalid_argument);
}

// A pad of 2^63 wraps in + 2*pad back to a small extent, and a pad of 2^62
// leaves a padded axis far past 32-bit tap offsets; either way a plan could
// verify and still index out of bounds. hw::window_extent refuses any
// padded axis past UINT32_MAX, so the compiler, the reference run() and
// the cycle model all throw. Each image goes through the byte loader first,
// like a deployment image read from disk.
TEST(CompileQnet, PaddedAxesPastThirtyTwoBitsAreRejected) {
  std::vector<hw::QNetDesc> images;
  for (const std::size_t pad : {std::size_t{1} << 63, std::size_t{1} << 62}) {
    hw::QConv conv;
    conv.in_c = 1;
    conv.out_c = 1;
    conv.kernel = 1;
    conv.stride = 1;
    conv.pad = pad;
    conv.packed_weights = {0};
    conv.bias_codes = {0};
    hw::QNetDesc desc;
    desc.name = "conv1x1-huge-pad";
    desc.layers.emplace_back(conv);
    images.push_back(std::move(desc));
  }
  {
    hw::QPool pool;
    pool.window = 2;
    pool.stride = 1;
    pool.pad = std::size_t{1} << 63;
    hw::QNetDesc desc;
    desc.name = "maxpool2-huge-pad";
    desc.layers.emplace_back(pool);
    images.push_back(std::move(desc));
  }

  const Tensor input{Shape{1, 1, 4, 4}};
  for (const hw::QNetDesc& image : images) {
    const hw::QNetDesc desc = hw::qnet_from_bytes(hw::qnet_to_bytes(image));
    EXPECT_THROW((void)compile_qnet(desc, 1, 4, 4), std::invalid_argument)
        << desc.name;
    EXPECT_THROW((void)hw::AcceleratorExecutor(desc).run(input),
                 std::invalid_argument)
        << desc.name;
    EXPECT_THROW((void)hw::workload_from_qnet(desc, 1, 4, 4),
                 std::invalid_argument)
        << desc.name;
  }

  // The bound itself: a padded axis of exactly UINT32_MAX is accepted, one
  // more is not.
  const std::size_t in = 5, pad = (UINT32_MAX - in) / 2;
  EXPECT_EQ(hw::window_extent(in, 1, 1, pad, "bound"), std::size_t{UINT32_MAX});
  EXPECT_THROW((void)hw::window_extent(in, 1, 1, pad + 1, "bound"),
               std::invalid_argument);
  EXPECT_THROW((void)hw::window_extent(std::size_t{UINT32_MAX} + 1, 1, 1, 0,
                                       "bound"),
               std::invalid_argument);
}

// A pool with window 2^20 and pad 2^20 - 1 passes window_extent on a 4x4
// map, but its output map is (2^20 + 3)^2 ~ 2^40 codes per channel; a conv
// can likewise keep its padded sample within 32 bits and still produce
// out_c x oh x ow > 2^32 codes. Every layer's output map is bounded to
// UINT32_MAX codes per sample, so the compiler, the verifier and the
// reference run() all refuse these before sizing a buffer.
TEST(CompileQnet, OutputMapsPastThirtyTwoBitsAreRejected) {
  std::vector<hw::QNetDesc> images;
  {
    hw::QPool pool;
    pool.window = std::size_t{1} << 20;
    pool.stride = 1;
    pool.pad = (std::size_t{1} << 20) - 1;
    hw::QNetDesc desc;
    desc.name = "maxpool2^20-huge-map";
    desc.layers.emplace_back(pool);
    images.push_back(std::move(desc));
  }
  {  // padded sample (2^16 - 1)^2 codes fits; 2 channels of it do not
    hw::QConv conv;
    conv.in_c = 1;
    conv.out_c = 2;
    conv.kernel = 1;
    conv.stride = 1;
    conv.pad = (std::size_t{1} << 15) - 1;
    conv.packed_weights = {0};
    conv.bias_codes = {0, 0};
    hw::QNetDesc desc;
    desc.name = "conv1x1-huge-map";
    desc.layers.emplace_back(conv);
    images.push_back(std::move(desc));
  }
  const std::size_t side[] = {4, 1};
  for (std::size_t i = 0; i < images.size(); ++i) {
    const hw::QNetDesc desc = hw::qnet_from_bytes(hw::qnet_to_bytes(images[i]));
    EXPECT_THROW((void)compile_qnet(desc, 1, side[i], side[i]),
                 std::invalid_argument)
        << desc.name;
    const Tensor input{Shape{1, 1, side[i], side[i]}};
    EXPECT_THROW((void)hw::AcceleratorExecutor(desc).run(input),
                 std::invalid_argument)
        << desc.name;
  }

  // The verifier bounds the map too: a lowered 4x4 pool plan rewritten to
  // the huge window, with every geometry field consistent, is refused.
  hw::QNetDesc small;
  small.name = "maxpool2";
  small.layers.emplace_back(hw::QPool{});
  CompiledPlan plan = lower_qnet(small, 1, 4, 4);
  PlanStep& step = plan.steps.front();
  step.pool.window = std::size_t{1} << 20;
  step.pool.stride = 1;
  step.pool.pad = (std::size_t{1} << 20) - 1;
  step.out_h = step.out_w = (std::size_t{1} << 20) + 3;
  plan.out_features = step.out_h * step.out_w;
  EXPECT_THROW(pass_verify(plan), std::runtime_error);

  // The bound itself: a map of exactly UINT32_MAX codes fits, one more
  // channel's worth does not.
  EXPECT_TRUE(hw::fits_u32_map(1, 65535, 65537));
  EXPECT_FALSE(hw::fits_u32_map(2, 65535, 65537));
  EXPECT_FALSE(hw::fits_u32_map(1, 65536, 65536));
}

// ----------------------------------------------------------- bit-identity

struct IdentityCase {
  std::uint64_t seed;
  const char* architecture;
};

class CompiledBitIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(CompiledBitIdentity, PlanMatchesTheReferenceExecutor) {
  const auto [seed, architecture] = GetParam();
  const hw::QNetDesc desc = make_zoo_qnet(seed, architecture);
  expect_bit_identical(desc, make_images(5, seed + 100), "defaults");
}

// The width-0.2 zoo nets have convs with few output channels: every conv
// runs im2col, so these cases pin im2col on small out_c too.
INSTANTIATE_TEST_SUITE_P(
    SeedsAndArchitectures, CompiledBitIdentity,
    ::testing::Values(IdentityCase{21, "cifar"}, IdentityCase{22, "alexnet"},
                      IdentityCase{23, "mlp"}, IdentityCase{24, "cifar"}));

// The input encode at every sub-batch boundary (run_plan_batch encodes
// four samples at a time): batches of 1, 5 and 9 leave tails of 1, 1 and 1
// after full sub-batches of 0, 1 and 2. Every input is a rounding edge at
// the plan's input radix (an exact half-way point k + 0.5 for k in
// [-130, 129], shifted per sample) or a saturating one (-0.0, +-inf,
// +-1e30); the logits must equal run() bit for bit.
TEST(CompiledBitIdentity, InputEncodeEdgesAcrossSubBatchTails) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const char* architecture : {"mlp", "cifar"}) {
    const hw::QNetDesc desc = make_zoo_qnet(25, architecture);
    const auto plan = compile_qnet(desc, kInC, kInH, kInW);
    const hw::AcceleratorExecutor executor(desc);
    std::vector<float> edges{-0.0f, kInf, -kInf, 1e30f, -1e30f};
    for (int k = -130; k <= 129; ++k) {
      edges.push_back(
          static_cast<float>(std::ldexp(k + 0.5, -desc.input_frac)));
    }
    for (const std::size_t batch : {1u, 5u, 9u}) {
      Tensor images{Shape{batch, kInC, kInH, kInW}};
      const std::size_t sample = kInC * kInH * kInW;
      for (std::size_t i = 0; i < images.size(); ++i) {
        images[i] = edges[(i + 7 * (i / sample)) % edges.size()];
      }
      hw::ExecScratch scratch;
      const Tensor compiled = run_plan_batch(*plan, images, scratch);
      const Tensor reference = executor.run(images);
      ASSERT_EQ(compiled.shape(), reference.shape());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(compiled[i]),
                  std::bit_cast<std::uint32_t>(reference[i]))
            << architecture << " batch " << batch << " logit " << i;
      }
    }
  }
}

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

    expect_bit_identical(desc, make_images(4, 31), "1x1 conv");
  }
}

TEST(EdgeGeometry, HeavyPaddingMatchesTheReference) {
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
  expect_bit_identical(desc, make_images(4, 34), "heavy padding");
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
  expect_bit_identical(desc, make_images(4, 36), "uneven pool tiling");
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
  expect_bit_identical(desc, make_images(4, 38), "padded pool");
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
  expect_bit_identical(desc, make_images(4, 40), "pool before relu");
}

// The MAC tile covers 4 output pixels (conv) or batch rows (FC) x 2 output
// channels. These convs leave a remainder on every axis: an output pixel
// count that is not a multiple of 4, an odd out_c, patch lengths (3, 27,
// 75) that are not a multiple of any vector width, and the fc behind them
// sees batches of 1, 3 and 6 rows against its 5 (odd) outputs.
TEST(EdgeGeometry, TileRemaindersMatchTheReference) {
  struct ConvCase {
    std::size_t out_c, kernel, stride, pad;
  };
  std::uint64_t seed = 60;
  for (const ConvCase c : {ConvCase{7, 1, 2, 1}, ConvCase{5, 5, 2, 1},
                           ConvCase{5, 3, 2, 0}}) {
    util::Rng rng{++seed};
    const std::size_t out_hw = (kInH + 2 * c.pad - c.kernel) / c.stride + 1;
    nn::Network net;
    net.add(std::make_unique<nn::Conv2D>(
        nn::Conv2D::Config{kInC, c.out_c, c.kernel, c.stride, c.pad}, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::Flatten>());
    net.add(std::make_unique<nn::FullyConnected>(
        nn::FullyConnected::Config{c.out_c * out_hw * out_hw, 5}, rng));
    const hw::QNetDesc desc = qnet_from_net(std::move(net), rng, "tiles");

    const auto plan = compile_qnet(desc, kInC, kInH, kInW);
    const PlanStep& conv = plan->steps.front();
    ASSERT_EQ(conv.kind, StepKind::kConv);
    EXPECT_NE(conv.out_h * conv.out_w % 4, 0u);
    EXPECT_NE(conv.out_c % 2, 0u);
    const std::string context =
        "conv" + std::to_string(c.kernel) + "x" + std::to_string(c.kernel) +
        " out_c " + std::to_string(c.out_c);
    for (const std::size_t batch : {1, 3, 6}) {
      expect_bit_identical(
          desc, make_images(batch, seed + batch),
          (context + " batch " + std::to_string(batch)).c_str());
    }
  }
}

// A compiled conv reads each window as `kernel` contiguous runs of
// kernel * in_c codes from a channels-last padded sample. These convs
// sweep the run length from 1 to 80 (mostly not a multiple of 8), every
// stride and pad class (none, half the kernel, a whole kernel of border)
// on a non-square 9x7 map, with an odd out_c and batches of 1, 3 and 6.
TEST(EdgeGeometry, ChannelsLastRunsMatchTheReference) {
  constexpr std::size_t kH = 9, kW = 7, kOutC = 3;
  std::uint64_t seed = 80;
  for (const std::size_t in_c : {1, 2, 5, 16}) {
    for (const std::size_t kernel : {1, 3, 5}) {
      for (const std::size_t stride : {1, 2}) {
        for (const std::size_t pad : {std::size_t{0}, kernel / 2, kernel}) {
          util::Rng rng{++seed};
          const std::size_t oh = (kH + 2 * pad - kernel) / stride + 1;
          const std::size_t ow = (kW + 2 * pad - kernel) / stride + 1;
          nn::Network net;
          net.add(std::make_unique<nn::Conv2D>(
              nn::Conv2D::Config{in_c, kOutC, kernel, stride, pad}, rng));
          net.add(std::make_unique<nn::ReLU>());
          net.add(std::make_unique<nn::Flatten>());
          net.add(std::make_unique<nn::FullyConnected>(
              nn::FullyConnected::Config{kOutC * oh * ow, 3}, rng));
          const hw::QNetDesc desc =
              qnet_from_net(std::move(net), rng, "runs", in_c, kH, kW);
          const std::string context =
              "in_c " + std::to_string(in_c) + " conv" +
              std::to_string(kernel) + "s" + std::to_string(stride) + "p" +
              std::to_string(pad);
          for (const std::size_t batch : {1, 3, 6}) {
            Tensor images{Shape{batch, in_c, kH, kW}};
            images.fill_uniform(rng, -1.0f, 1.0f);
            expect_bit_identical(
                desc, images,
                (context + " batch " + std::to_string(batch)).c_str());
          }
        }
      }
    }
  }
}

/// `count` nibble-packed pow2 weights: the first `row` all -2^7, the rest
/// seeded random.
std::vector<std::uint8_t> wide_weights(std::size_t count, std::size_t row,
                                       util::Rng& rng) {
  std::vector<std::uint8_t> packed((count + 1) / 2, 0);
  const std::uint8_t minus_128 = quant::encode_nibble({true, 0});
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint8_t nibble =
        k < row ? minus_128 : static_cast<std::uint8_t>(rng.next_u64() & 0xF);
    packed[k / 2] |=
        static_cast<std::uint8_t>(k % 2 == 0 ? nibble : nibble << 4);
  }
  return packed;
}

/// Three seeded bias codes.
std::vector<std::int8_t> wide_bias(util::Rng& rng) {
  std::vector<std::int8_t> bias;
  for (int o = 0; o < 3; ++o) {
    bias.push_back(static_cast<std::int8_t>(rng.uniform_int(-128, 127)));
  }
  return bias;
}

/// flatten -> fc(in_features -> 3) over {in_features, 1, 1} inputs. Row 0
/// holds every weight at -2^7; rows 1-2 hold seeded random pow2 weights.
/// Codes enter at <8,7> (the full [-128, 127] range) and leave at <8,0>, so
/// random sums spread over the output range instead of saturating.
hw::QNetDesc wide_fc_desc(std::size_t in_features, std::uint64_t seed) {
  util::Rng rng{seed};
  hw::QNetDesc desc;
  desc.name = "wide-fc";
  desc.input_frac = 7;
  hw::QFlatten flat;
  flat.out_frac = 7;
  desc.layers.emplace_back(flat);
  hw::QFullyConnected fc;
  fc.in_features = in_features;
  fc.out_features = 3;
  fc.packed_weights =
      wide_weights(in_features * fc.out_features, in_features, rng);
  fc.bias_codes = wide_bias(rng);
  fc.out_frac = 0;
  desc.layers.emplace_back(fc);
  return desc;
}

// One tap past kI32SafePatch the executor leaves the tile for the scalar
// int64 dot and the checked routing; exactly at it the tile still runs.
// Both must match run() bit for bit on a random sample and on an all -128
// sample: against row 0's -2^7 weights that one sums to 2^31 past the
// bound — an int32 wrap would route it to -128 instead of 127 — and to
// 2^31 - 2^14, the largest exact int32 dot, at it.
TEST(EdgeGeometry, FcAtAndPastTheInt32PatchBoundMatchesTheReference) {
  for (const std::size_t in_features : {kI32SafePatch, kI32SafePatch + 1}) {
    const hw::QNetDesc desc = wide_fc_desc(in_features, 70 + in_features);
    util::Rng rng{71};
    Tensor images{Shape{2, in_features, 1, 1}};
    images.fill_uniform(rng, -1.0f, 1.0f);
    for (std::size_t k = in_features; k < 2 * in_features; ++k) {
      images[k] = -1.0f;  // code -128 at <8,7>
    }

    const auto plan = compile_qnet(desc, in_features, 1, 1);
    hw::ExecScratch scratch;
    const Tensor compiled = run_plan_batch(*plan, images, scratch);
    const Tensor reference = hw::AcceleratorExecutor(desc).run(images);
    ASSERT_EQ(compiled.shape(), reference.shape());
    EXPECT_EQ(tensor::max_abs_diff(compiled, reference), 0.0f)
        << "in_features " << in_features;
    EXPECT_EQ(reference[3], 127.0f) << "in_features " << in_features;
    // Not all saturated: the comparison sees real routed values.
    std::size_t interior = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const float v = reference[i];
      if (v > -128.0f && v < 127.0f) ++interior;
    }
    EXPECT_GT(interior, 0u) << "in_features " << in_features;
  }
}

// The same bound for a conv patch, read as channels-last runs:
// kI32SafePatch = 2^17 - 1 taps as one run of a 1x1 conv, and 2^17 taps as
// two runs of 2^16 of a 2x2 conv over 2^15 channels (two output pixels).
// Output channel 0 holds every weight at -2^7 and sample 1 every code at
// -128, so its first pixel sums to 2^31 - 2^14 at the bound and 2^31 past
// it, where an int32 wrap would route to -128 instead of 127.
TEST(EdgeGeometry, ConvAtAndPastTheInt32PatchBoundMatchesTheReference) {
  struct WideConv {
    std::size_t in_c, kernel, h, w;
  };
  for (const WideConv c : {WideConv{kI32SafePatch, 1, 1, 1},
                           WideConv{(kI32SafePatch + 1) / 4, 2, 3, 2}}) {
    const std::size_t patch = c.in_c * c.kernel * c.kernel;
    util::Rng rng{90 + patch};
    hw::QNetDesc desc;
    desc.name = "wide-conv";
    desc.input_frac = 7;
    hw::QConv conv;
    conv.in_c = c.in_c;
    conv.out_c = 3;
    conv.kernel = c.kernel;
    conv.packed_weights = wide_weights(conv.out_c * patch, patch, rng);
    conv.bias_codes = wide_bias(rng);
    conv.out_frac = 0;
    desc.layers.emplace_back(conv);

    const std::size_t sample = c.in_c * c.h * c.w;
    Tensor images{Shape{2, c.in_c, c.h, c.w}};
    images.fill_uniform(rng, -1.0f, 1.0f);
    for (std::size_t k = sample; k < 2 * sample; ++k) {
      images[k] = -1.0f;  // code -128 at <8,7>
    }
    const std::string context = "patch " + std::to_string(patch);
    expect_bit_identical(desc, images, context.c_str());

    const Tensor reference = hw::AcceleratorExecutor(desc).run(images);
    const std::size_t pixels = reference.size() / (2 * conv.out_c);
    EXPECT_EQ(reference[conv.out_c * pixels], 127.0f) << context;
  }
}

// ------------------------------------------------------------- plan cache

TEST(PlanCache, SharesByContentAndEvictedPlansKeepServing) {
  const hw::QNetDesc desc_a = make_zoo_qnet(50, "cifar", "a");
  const hw::QNetDesc desc_a2 = make_zoo_qnet(50, "cifar", "renamed");
  const hw::QNetDesc desc_b = make_zoo_qnet(51, "mlp", "b");

  PlanCache cache(1);  // LRU bound of one entry
  const auto plan_a = cache.get_or_compile(desc_a, kInC, kInH, kInW);
  // Identical content under a different name: a hit, the same artifact.
  const auto plan_a2 = cache.get_or_compile(desc_a2, kInC, kInH, kInW);
  EXPECT_EQ(plan_a.get(), plan_a2.get());
  // A different input geometry compiles its own entry (and evicts at
  // bound 1); 17x17 pools down to the same 2x2 map the fc expects.
  const auto plan_17 = cache.get_or_compile(desc_a, kInC, kInH + 1, kInW + 1);
  EXPECT_NE(plan_a.get(), plan_17.get());
  const auto plan_b = cache.get_or_compile(desc_b, kInC, kInH, kInW);

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
  config.placement.assign(2, config.device);
  server.deploy("first", {desc}, config);

  // Two replicas, one compilation.
  PlanCacheStats stats = server.plan_cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // Same content under another deployment name: another hit, zero compiles.
  config.placement.clear();
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
