// The deploy-time numeric static analyzer (src/analysis): interval bounds
// hand-checked against pencil-and-paper arithmetic, adversarial
// constructions at the int32 fast-dot edge, rejection of provably unsafe
// plans at deploy() with the typed StatusCode, bit-consistency of the
// bounds against exhaustive small-input plan execution, and the
// DeployConfig validation that rejects nonsensical configs before any
// engine is built.
#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "hw/executor.hpp"
#include "hw/kernels.hpp"
#include "nn/zoo.hpp"
#include "quant/pow2.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "serve/status.hpp"

namespace mfdfp::analysis {
namespace {

using compile::CompiledPlan;
using compile::PlanStep;
using compile::StepKind;
using quant::Pow2Weight;
using tensor::Shape;
using tensor::Tensor;

std::vector<std::uint8_t> pack_nibbles(const std::vector<Pow2Weight>& ws) {
  std::vector<std::uint8_t> packed((ws.size() + 1) / 2, 0);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::uint8_t nibble = quant::encode_nibble(ws[i]);
    packed[i / 2] |= static_cast<std::uint8_t>(i % 2 == 0 ? nibble
                                                          : nibble << 4);
  }
  return packed;
}

/// A hand-built deployment image: flatten -> fc over a {in_features, 1, 1}
/// input, with exact power-of-two weights and bias codes, so every
/// analyzer bound is hand-computable.
hw::QNetDesc flatten_fc_desc(std::size_t in_features,
                             std::size_t out_features,
                             const std::vector<Pow2Weight>& weights,
                             const std::vector<std::int8_t>& bias,
                             int input_frac, int flat_frac, int fc_frac) {
  hw::QNetDesc desc;
  desc.name = "hand";
  desc.input_frac = input_frac;
  hw::QFlatten flat;
  flat.out_frac = flat_frac;
  desc.layers.emplace_back(flat);
  hw::QFullyConnected fc;
  fc.in_features = in_features;
  fc.out_features = out_features;
  fc.packed_weights = pack_nibbles(weights);
  fc.bias_codes = bias;
  fc.out_frac = fc_frac;
  desc.layers.emplace_back(fc);
  return desc;
}

/// A bare CompiledPlan with one fc step and arbitrary predecoded weights —
/// for driving the analyzer into regions the nibble encoding cannot reach.
CompiledPlan hand_fc_plan(std::size_t in_features, std::size_t out_features,
                          std::int16_t weight_value, int in_frac,
                          int out_frac) {
  CompiledPlan plan;
  plan.model = "hand-plan";
  plan.input_frac = in_frac;
  plan.in_c = in_features;
  plan.in_h = 1;
  plan.in_w = 1;
  plan.out_features = out_features;
  PlanStep s;
  s.kind = StepKind::kFullyConnected;
  s.label = "fc";
  s.in_features = in_features;
  s.out_features = out_features;
  s.in_frac = in_frac;
  s.out_frac = out_frac;
  s.weights.assign(in_features * out_features, weight_value);
  s.bias.assign(out_features, 0);
  plan.steps.push_back(std::move(s));
  return plan;
}

hw::QNetDesc make_zoo_qnet(std::uint64_t seed, const std::string& arch) {
  constexpr std::size_t kC = 3, kH = 16, kW = 16;
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = kC;
  config.in_h = kH;
  config.in_w = kW;
  config.num_classes = 5;
  config.width_multiplier = 0.25f;
  nn::Network net = [&] {
    if (arch == "cifar") return nn::make_cifar10_net(config, rng);
    if (arch == "alexnet") return nn::make_alexnet_mini(config, rng);
    return nn::make_mlp(config, 12, rng);
  }();
  Tensor calibration{Shape{6, kC, kH, kW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, arch);
}

// ------------------------------------------------------------- intervals

TEST(Analysis, BitsNeeded) {
  EXPECT_EQ(bits_needed({0, 0}), 1);
  EXPECT_EQ(bits_needed({-1, 0}), 1);
  EXPECT_EQ(bits_needed({0, 1}), 2);
  EXPECT_EQ(bits_needed({-128, 127}), 8);
  EXPECT_EQ(bits_needed({-129, 0}), 9);
  EXPECT_EQ(bits_needed({-65536, 65024}), 17);
  EXPECT_EQ(bits_needed({INT64_MIN, INT64_MAX}), 64);
}

// ------------------------------------------------- hand-computed bounds

// flatten -> fc(4 -> 2), every weight +2^0 (integer multiplier 2^7 = 128),
// zero bias, all radices 0. Per channel, by hand:
//   per-tap contribution: [128 * -128, 128 * 127] = [-16384, 16256]
//   dot (4 taps):         [-65536, 65024]            -> needs 17 bits
//   route (>> 7, round):  [-512, 508]
//   clip per channel:     (508 - 127) + (-128 - -512) = 765
//   out after saturation: [-128, 127]
TEST(Analysis, HandComputedFcBounds) {
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  const hw::QNetDesc desc =
      flatten_fc_desc(4, 2, weights, {0, 0}, /*input_frac=*/0,
                      /*flat_frac=*/0, /*fc_frac=*/0);
  const auto plan = compile::compile_qnet(desc, 4, 1, 1);
  const AnalysisReport report = analyze_plan(*plan);

  ASSERT_TRUE(report.ok()) << report.table();
  ASSERT_EQ(report.steps.size(), 2u);  // flatten, fc
  const StepBounds& fc = report.steps[1];
  EXPECT_EQ(fc.kind, StepKind::kFullyConnected);
  EXPECT_EQ(fc.dot, (Interval{-65536, 65024}));
  EXPECT_EQ(fc.accumulator_bits, 17);
  EXPECT_TRUE(fc.int32_dot);
  EXPECT_EQ(fc.routed, (Interval{-512, 508}));
  EXPECT_EQ(fc.out, (Interval{-128, 127}));
  EXPECT_EQ(fc.clip_mass, 2 * 765);
  EXPECT_EQ(report.total_clip_mass, 2 * 765);
}

TEST(Analysis, NarrowedInputTightensEveryBound) {
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  const hw::QNetDesc desc = flatten_fc_desc(4, 2, weights, {0, 0}, 0, 0, 0);
  const auto plan = compile::compile_qnet(desc, 4, 1, 1);

  AnalysisOptions options;
  options.input = {0, 63};  // e.g. unsigned inputs known to stay below 0.5
  const AnalysisReport report = analyze_plan(*plan, options);

  ASSERT_TRUE(report.ok());
  const StepBounds& fc = report.steps[1];
  EXPECT_EQ(fc.dot, (Interval{0, 4 * 128 * 63}));  // [0, 32256]
  EXPECT_EQ(fc.routed, (Interval{0, 252}));
  EXPECT_EQ(fc.out, (Interval{0, 127}));
  EXPECT_EQ(fc.clip_mass, 2 * (252 - 127));
  EXPECT_EQ(fc.accumulator_bits, 16);  // vs 17 for the full input range
}

// conv 1->1, k=2, s=2, p=1 on a 1x3x3 input: a 2x2 output whose windows
// start at -1 and 1 on each axis. On either axis tap 0 reads the border for
// the first window and tap 1 is inside for both windows (1*2 + 1 < 3 + 1),
// so only tap (ky=1, kx=1) is never padded. Every weight is +2^0 (128) and
// inputs are in [1, 127]: the minimum dot is that tap alone (128 * 1), the
// maximum all four (4 * 128 * 127). Treating every tap as paddable would
// give lo = 0, treating none as paddable lo = 4 * 128 = 512.
TEST(Analysis, PaddedTapSetIsDerivedFromTheConvGeometry) {
  hw::QNetDesc desc;
  desc.name = "padded-taps";
  hw::QConv conv;
  conv.in_c = 1;
  conv.out_c = 1;
  conv.kernel = 2;
  conv.stride = 2;
  conv.pad = 1;
  conv.packed_weights = pack_nibbles(std::vector<Pow2Weight>(4, {false, 0}));
  conv.bias_codes = {0};
  desc.layers.emplace_back(conv);
  const auto plan = compile::compile_qnet(desc, 1, 3, 3);

  AnalysisOptions options;
  options.input = {1, 127};
  const AnalysisReport report = analyze_plan(*plan, options);
  ASSERT_TRUE(report.ok()) << report.table();
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].dot, (Interval{128, 65024}));
}

// conv 1->2 (1x1) then conv 2->1 (2x2) on a 1x2x2 input at radix 0, inputs
// in [1, 127]. The first conv's channel 0 weight is +2^0 (128), so it
// routes x >> 7 of 128x back to [1, 127]; channel 1's is +2^-7 (1), which
// routes to round(x / 128) in [0, 1]. The second conv weighs input channel
// 0 by 128 and channel 1 by 1 at all four taps, so its dot is
// 4 * 128 * [1, 127] + 4 * 1 * [0, 1] = [512, 65028]. The plan stores that
// row channels-last (128, 1, 128, 1, ...): reading tap k's interval from
// any channel but k % in_c would pair the weights with the wrong bounds.
TEST(Analysis, ConvTapsReadTheirOwnChannelsInterval) {
  hw::QNetDesc desc;
  desc.name = "per-channel";
  hw::QConv split;
  split.in_c = 1;
  split.out_c = 2;
  split.kernel = 1;
  split.packed_weights = pack_nibbles({{false, 0}, {false, -7}});
  split.bias_codes = {0, 0};
  desc.layers.emplace_back(split);
  hw::QConv merge;
  merge.in_c = 2;
  merge.out_c = 1;
  merge.kernel = 2;
  std::vector<Pow2Weight> weights(4, {false, 0});
  weights.insert(weights.end(), 4, {false, -7});
  merge.packed_weights = pack_nibbles(weights);
  merge.bias_codes = {0};
  desc.layers.emplace_back(merge);
  const auto plan = compile::compile_qnet(desc, 1, 2, 2);

  AnalysisOptions options;
  options.input = {1, 127};
  const AnalysisReport report = analyze_plan(*plan, options);
  ASSERT_TRUE(report.ok()) << report.table();
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_EQ(report.steps[0].out, (Interval{0, 127}));
  EXPECT_EQ(report.steps[1].dot, (Interval{512, 65028}));
}

/// Brute-force tap counts: bounds-test every tap of every window.
std::pair<std::size_t, std::size_t> brute_tap_counts(const hw::QPool& pool,
                                                     std::size_t ih,
                                                     std::size_t iw,
                                                     std::size_t oh,
                                                     std::size_t ow) {
  std::size_t min_taps = pool.window * pool.window;
  std::size_t max_taps = 0;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      std::size_t taps = 0;
      for (std::size_t ky = 0; ky < pool.window; ++ky) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * pool.stride + ky) -
            static_cast<std::ptrdiff_t>(pool.pad);
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
        for (std::size_t kx = 0; kx < pool.window; ++kx) {
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * pool.stride + kx) -
              static_cast<std::ptrdiff_t>(pool.pad);
          if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
          ++taps;
        }
      }
      min_taps = std::min(min_taps, taps);
      max_taps = std::max(max_taps, taps);
    }
  }
  return {min_taps, max_taps};
}

TEST(Analysis, PoolTapCountsClosedFormMatchesTheWalk) {
  std::size_t geometries = 0;
  for (std::size_t ih = 1; ih <= 7; ++ih) {
    for (const std::size_t iw : {std::size_t{1}, std::size_t{2}, ih + 3}) {
      for (std::size_t window = 1; window <= 6; ++window) {
        for (std::size_t stride = 1; stride <= 4; ++stride) {
          for (std::size_t pad = 0; pad <= window + 1; ++pad) {
            if (ih + 2 * pad < window || iw + 2 * pad < window) continue;
            hw::QPool pool;
            pool.window = window;
            pool.stride = stride;
            pool.pad = pad;
            const std::size_t oh =
                hw::window_extent(ih, window, stride, pad, "test");
            const std::size_t ow =
                hw::window_extent(iw, window, stride, pad, "test");
            ASSERT_EQ(pool_tap_counts(pool, ih, iw, oh, ow),
                      brute_tap_counts(pool, ih, iw, oh, ow))
                << ih << "x" << iw << " window=" << window
                << " stride=" << stride << " pad=" << pad;
            ++geometries;
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 1000u);
}

// A window of 2^12 padded by 2^12 - 1 on a 4x4 map: 4099 x 4099 windows of
// 2^24 taps each, almost all of them padding (every window still reaches
// one corner tap). Walking every tap would take the analyzer minutes; the
// closed form answers at once, so compile accepts the plan (or would
// reject it with a typed error) within the test timeout.
TEST(Analysis, HugePaddedPoolWindowCompilesInClosedForm) {
  for (const bool is_max : {true, false}) {
    hw::QNetDesc desc;
    desc.name = "huge-pool";
    desc.input_frac = 7;
    hw::QPool pool;
    pool.is_max = is_max;
    pool.window = std::size_t{1} << 12;
    pool.stride = 1;
    pool.pad = (std::size_t{1} << 12) - 1;
    pool.out_frac = 7;
    desc.layers.emplace_back(pool);

    const auto plan = compile::compile_qnet(desc, 1, 4, 4);
    ASSERT_EQ(plan->steps.size(), 1u);
    const PlanStep& step = plan->steps[0];
    EXPECT_EQ(step.out_h, 4099u);
    EXPECT_EQ(step.out_w, 4099u);
    EXPECT_EQ(pool_tap_counts(step.pool, 4, 4, step.out_h, step.out_w),
              (std::pair<std::size_t, std::size_t>{1, 16}));
  }
}

TEST(Analysis, FailOnClipTurnsClipMassIntoViolation) {
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  const hw::QNetDesc desc = flatten_fc_desc(4, 2, weights, {0, 0}, 0, 0, 0);
  const auto plan = compile::compile_qnet(desc, 4, 1, 1);

  AnalysisOptions options;
  options.fail_on_clip = true;
  const AnalysisReport report = analyze_plan(*plan, options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("saturation"), std::string::npos);
}

TEST(Analysis, TightenedAccumulatorWidthIsRejected) {
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  const hw::QNetDesc desc = flatten_fc_desc(4, 2, weights, {0, 0}, 0, 0, 0);
  const auto plan = compile::compile_qnet(desc, 4, 1, 1);

  // The worst-case dot needs 17 bits; a 16-bit register cannot hold it.
  AnalysisOptions options;
  options.accumulator_bits = 16;
  const AnalysisReport report = analyze_plan(*plan, options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("accumulator overflow"),
            std::string::npos);

  // 17 bits is exactly enough.
  options.accumulator_bits = 17;
  EXPECT_TRUE(analyze_plan(*plan, options).ok());
}

// ------------------------------------------------------ int32-edge cases

// A maximal construction *exactly at* the executor's int32 fast-path
// boundary: kI32SafePatch taps, every weight at the ±2^7 magnitude cap.
// The worst-case dot lands within 2^31 with no slack to spare — the
// analyzer must prove it exact, not reject it.
TEST(Analysis, Int32FastPathProvenAtTheExactBoundary) {
  const auto patch = compile::kI32SafePatch;
  const CompiledPlan plan = hand_fc_plan(patch, 1, /*weight=*/128, 0, 0);
  const AnalysisReport report = analyze_plan(plan);

  ASSERT_TRUE(report.ok()) << report.table();
  const StepBounds& fc = report.steps.front();
  EXPECT_TRUE(fc.int32_dot);
  EXPECT_EQ(fc.accumulator_bits, 32);
  EXPECT_EQ(fc.dot.lo, -static_cast<std::int64_t>(patch) * 16384);
  EXPECT_EQ(fc.dot.hi, static_cast<std::int64_t>(patch) * 16256);
}

// Weights beyond what the nibble encoding can produce (a corrupted or
// hand-patched table): INT16_MAX over 1024 taps gives a worst-case dot of
// 1024 * 128 * 32767 > 2^31 while the patch size still selects the int32
// fast path — the analyzer must flag the wrap.
TEST(Analysis, Int32WrapIsAViolation) {
  const CompiledPlan plan = hand_fc_plan(1024, 1, /*weight=*/INT16_MAX, 0, 0);
  const AnalysisReport report = analyze_plan(plan);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("int32 fast-dot"),
            std::string::npos);
}

TEST(Analysis, RadixChainBreakIsAViolation) {
  CompiledPlan plan = hand_fc_plan(4, 1, 128, /*in_frac=*/3, 3);
  plan.input_frac = 0;  // the step expects <8,3> but receives <8,0>
  const AnalysisReport report = analyze_plan(plan);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("radix chain break"),
            std::string::npos);
}

// ------------------------------------------------ rejection at deploy()

// An extreme (but structurally valid) radix chain: the flatten refracs to
// <8,60>, so the fc's route alignment must shift the bias by more than 62
// bits — the int64 model carrier itself overflows, which the runtime
// would surface as a thrown std::overflow_error mid-request. The analyzer
// proves it unreachable by rejecting the plan at compile time.
hw::QNetDesc overflowing_desc() {
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  return flatten_fc_desc(4, 2, weights, {1, 1}, /*input_frac=*/0,
                         /*flat_frac=*/60, /*fc_frac=*/0);
}

TEST(Analysis, CarrierOverflowRejectedByCompilePipeline) {
  EXPECT_THROW((void)compile::compile_qnet(overflowing_desc(), 4, 1, 1),
               PlanRejectedError);

  // Lowering alone stops before the proof, so the plan still builds and
  // verifies; analyzing it directly reports the violation instead of
  // throwing.
  const CompiledPlan plan = compile::lower_qnet(overflowing_desc(), 4, 1, 1);
  const AnalysisReport report = analyze_plan(plan);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.table().find("int64 model-carrier overflow"),
            std::string::npos);
}

TEST(Analysis, UnsafePlanRejectedAtDeployWithTypedStatus) {
  serve::ModelServer server;
  serve::DeployConfig config;
  config.in_c = 4;
  config.in_h = 1;
  config.in_w = 1;
  config.workers = 1;

  try {
    server.deploy("unsafe", {overflowing_desc()}, config);
    FAIL() << "deploy() accepted a plan the analyzer rejects";
  } catch (const serve::DeployError& error) {
    EXPECT_EQ(error.code(), serve::StatusCode::kUnsafePlan);
    EXPECT_NE(std::string(error.what()).find("rejected"), std::string::npos);
  }
  EXPECT_EQ(server.model_count(), 0u);

  // The server is unharmed: a safe model still deploys and serves.
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  const hw::QNetDesc safe = flatten_fc_desc(4, 2, weights, {0, 0}, 0, 0, 0);
  EXPECT_NO_THROW(server.deploy("safe", {safe}, config));
  EXPECT_EQ(server.model_count(), 1u);
}

// -------------------------------------------------- DeployConfig checks

TEST(DeployValidation, NonsensicalConfigsRejectedWithTypedStatus) {
  const std::vector<Pow2Weight> weights(8, Pow2Weight{false, 0});
  const hw::QNetDesc desc = flatten_fc_desc(4, 2, weights, {0, 0}, 0, 0, 0);

  serve::DeployConfig good;
  good.in_c = 4;
  good.in_h = 1;
  good.in_w = 1;
  good.workers = 1;

  const auto expect_invalid = [&](serve::DeployConfig config,
                                  const char* context) {
    serve::ModelServer server;
    try {
      server.deploy("m", {desc}, config);
      FAIL() << context << ": deploy() accepted a nonsensical config";
    } catch (const serve::DeployError& error) {
      EXPECT_EQ(error.code(), serve::StatusCode::kInvalidConfig) << context;
      EXPECT_NE(std::string(error.what()).find("invalid deploy config"),
                std::string::npos)
          << context;
    }
    EXPECT_EQ(server.model_count(), 0u) << context;
  };

  {
    serve::DeployConfig c = good;
    c.workers = 0;
    expect_invalid(c, "zero workers");
  }
  {
    serve::DeployConfig c = good;
    c.max_batch = 0;
    expect_invalid(c, "zero max_batch");
  }
  {
    serve::DeployConfig c = good;
    c.queue_capacity = 0;
    expect_invalid(c, "zero-capacity queue");
  }
  {
    serve::DeployConfig c = good;
    c.max_wait_us = -1;
    expect_invalid(c, "negative max_wait_us");
  }
  {
    serve::DeployConfig c = good;
    c.default_deadline_us = -100;
    expect_invalid(c, "negative default_deadline_us");
  }
  {
    serve::DeployConfig c = good;
    c.in_h = 0;
    expect_invalid(c, "zero input dimension");
  }

  // A DeployError is still an invalid_argument, so pre-typed callers keep
  // catching what they always caught.
  {
    serve::ModelServer server;
    serve::DeployConfig c = good;
    c.workers = 0;
    EXPECT_THROW(server.deploy("m", {desc}, c), std::invalid_argument);
  }

  // The reference config is actually deployable.
  serve::ModelServer server;
  EXPECT_NO_THROW(server.deploy("m", {desc}, good));
}

// ------------------------------------------------------ bit consistency

// Soundness against the real executor: a 2->2 fc with mixed weight signs,
// exponents, and biases, exhaustively executed over *every* 8-bit input
// pair (65536 runs through run_plan_codes). Every observed output code
// must fall inside the analyzer's final interval — and because every dot
// extreme is attained at an input corner, the hull must be exactly tight.
TEST(Analysis, ExhaustiveSmallInputBitConsistency) {
  const std::vector<Pow2Weight> weights{
      {false, 0}, {true, -3},   // out0: +2^0, -2^-3
      {true, -7}, {false, -1},  // out1: -2^-7, +2^-1
  };
  const hw::QNetDesc desc =
      flatten_fc_desc(2, 2, weights, {5, -9}, /*input_frac=*/0,
                      /*flat_frac=*/0, /*fc_frac=*/2);
  const auto plan = compile::compile_qnet(desc, 2, 1, 1);
  const AnalysisReport report = analyze_plan(*plan);
  ASSERT_TRUE(report.ok()) << report.table();
  const Interval bound = report.steps.back().out;

  hw::ExecScratch scratch;
  Interval observed{127, -128};
  for (int a = -128; a <= 127; ++a) {
    for (int b = -128; b <= 127; ++b) {
      scratch.input.shape = Shape{1, 2, 1, 1};
      scratch.input.frac = plan->input_frac;
      scratch.input.codes.assign({static_cast<std::int8_t>(a),
                                  static_cast<std::int8_t>(b)});
      compile::run_plan_codes(*plan, scratch);
      ASSERT_EQ(scratch.input.codes.size(), 2u);
      for (const std::int8_t code : scratch.input.codes) {
        ASSERT_TRUE(bound.contains(code))
            << "input (" << a << ", " << b << ") produced code "
            << static_cast<int>(code) << " outside " << bound.lo << ".."
            << bound.hi;
        observed.lo = std::min<std::int64_t>(observed.lo, code);
        observed.hi = std::max<std::int64_t>(observed.hi, code);
      }
    }
  }
  EXPECT_EQ(observed, bound) << "analyzer bound is sound but not tight";
}

// ----------------------------------------------------------- zoo models

// The acceptance bar: every zoo architecture, quantized and compiled for a
// real geometry, is proven overflow-free with the int32 fast path exact on
// every mac step.
TEST(Analysis, ZooModelsProvenOverflowFree) {
  for (const std::string arch : {"cifar", "alexnet", "mlp"}) {
    const hw::QNetDesc desc = make_zoo_qnet(7, arch);
    const auto plan = compile::compile_qnet(desc, 3, 16, 16);
    const AnalysisReport report = analyze_plan(*plan);
    ASSERT_TRUE(report.ok()) << arch << ":\n" << report.table();
    EXPECT_NE(report.summary().find("proven overflow-free"),
              std::string::npos)
        << arch;
    for (const StepBounds& row : report.steps) {
      if (row.kind == StepKind::kConv ||
          row.kind == StepKind::kFullyConnected) {
        EXPECT_TRUE(row.int32_dot) << arch << " step " << row.step;
        EXPECT_LE(row.accumulator_bits, hw::kAccumulatorBits)
            << arch << " step " << row.step;
      }
    }
  }
}

}  // namespace
}  // namespace mfdfp::analysis
