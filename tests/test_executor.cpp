// The load-bearing invariant of the hardware model: the integer shift-add
// executor must produce *bit-identical* logits to the fake-quantized
// software network, across architectures and random seeds.
#include "hw/executor.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include "hw/kernels.hpp"
#include "nn/zoo.hpp"
#include "util/rng.hpp"

namespace mfdfp::hw {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(CodeTensor, EncodeDecodeRoundTrip) {
  util::Rng rng{1};
  Tensor values{Shape{3, 5}};
  values.fill_uniform(rng, -1.0f, 1.0f);
  const CodeTensor codes = CodeTensor::encode(values, 7);
  const Tensor decoded = codes.decode();
  // decode(encode(v)) == quantize(v) with <8,7>.
  const quant::DfpFormat format{8, 7};
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_FLOAT_EQ(decoded[i], format.quantize(values[i]));
  }
}

// The batch encoder multiplies by 2^frac once per call; encode() divides
// by step() per element. Both must give the same code at every radix
// check_radix accepts, on half-way points, their float neighbours, signed
// zeros, subnormals, the float extremes, infinities and NaN.
TEST(CodeTensor, BatchEncodeMatchesScalarEncodeAtEveryRadix) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (int frac = -kMaxRadix; frac <= kMaxRadix; ++frac) {
    std::vector<float> values{0.0f,
                              -0.0f,
                              kInf,
                              -kInf,
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min(),
                              FLT_MAX,
                              -FLT_MAX};
    for (int k = -130; k <= 129; ++k) {
      const float v = static_cast<float>(std::ldexp(k + 0.5, -frac));
      values.insert(values.end(), {v, std::nextafter(v, -kInf),
                                   std::nextafter(v, kInf)});
    }
    const Tensor tensor{Shape{values.size()}, values};
    const CodeTensor codes = CodeTensor::encode(tensor, frac);
    ASSERT_EQ(codes.shape, tensor.shape());
    ASSERT_EQ(codes.frac, frac);
    const quant::DfpFormat format{kInputBits, frac};
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(codes.codes[i], format.encode(values[i]))
          << "frac " << frac << " value " << values[i];
    }
  }
}

struct BitExactCase {
  std::uint64_t seed;
  const char* architecture;  // "cifar", "alexnet", "mlp"
};

class BitExactness : public ::testing::TestWithParam<BitExactCase> {};

TEST_P(BitExactness, ExecutorMatchesSoftwareModel) {
  const auto [seed, architecture] = GetParam();
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = [&] {
    if (std::string(architecture) == "cifar") {
      return nn::make_cifar10_net(config, rng);
    }
    if (std::string(architecture) == "alexnet") {
      return nn::make_alexnet_mini(config, rng);
    }
    return nn::make_mlp(config, 12, rng);
  }();

  Tensor calibration{Shape{6, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);

  Tensor images{Shape{4, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  const Tensor sw_logits =
      net.forward(quant::quantize_input(spec, images), nn::Mode::kEval);
  // MLP contains Tanh-free layers only when built via make_mlp (flatten,
  // fc, relu, fc) — all extractable.
  const QNetDesc desc = extract_qnet(net, spec);
  const AcceleratorExecutor executor(desc);
  const Tensor hw_logits = executor.run(images);

  ASSERT_EQ(hw_logits.shape(), sw_logits.shape());
  EXPECT_EQ(tensor::max_abs_diff(hw_logits, sw_logits), 0.0f)
      << "hardware executor diverged from software quantized model";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndArchitectures, BitExactness,
    ::testing::Values(BitExactCase{1, "cifar"}, BitExactCase{2, "cifar"},
                      BitExactCase{3, "cifar"}, BitExactCase{4, "alexnet"},
                      BitExactCase{5, "alexnet"}, BitExactCase{6, "mlp"},
                      BitExactCase{7, "mlp"}, BitExactCase{8, "cifar"},
                      BitExactCase{9, "alexnet"}, BitExactCase{10, "mlp"}));

TEST(Executor, EnsembleAveragesMemberLogits) {
  util::Rng rng{11};
  nn::ZooConfig config;
  config.in_channels = 1;
  config.in_h = config.in_w = 8;
  config.num_classes = 3;
  nn::Network a = nn::make_mlp(config, 6, rng);
  nn::Network b = nn::make_mlp(config, 6, rng);
  Tensor calibration{Shape{4, 1, 8, 8}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec_a = quant::quantize_network(a, calibration);
  const quant::QuantSpec spec_b = quant::quantize_network(b, calibration);

  const AcceleratorExecutor exec_a(extract_qnet(a, spec_a));
  const AcceleratorExecutor exec_b(extract_qnet(b, spec_b));
  Tensor images{Shape{2, 1, 8, 8}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  const std::vector<const AcceleratorExecutor*> members{&exec_a, &exec_b};
  const Tensor ens = run_ensemble(members, images);
  Tensor expected = exec_a.run(images);
  expected.add(exec_b.run(images));
  expected.scale(0.5f);
  EXPECT_EQ(tensor::max_abs_diff(ens, expected), 0.0f);

  const std::vector<const AcceleratorExecutor*> empty;
  EXPECT_THROW(run_ensemble(empty, images), std::invalid_argument);
}

TEST(Executor, RejectsShortWeightStream) {
  QNetDesc desc;
  desc.input_frac = 7;
  QConv conv;
  conv.in_c = conv.out_c = 2;
  conv.kernel = 3;
  conv.packed_weights = {0x00};  // far too short for 36 weights
  conv.bias_codes = {0, 0};
  desc.layers.emplace_back(std::move(conv));
  EXPECT_THROW(AcceleratorExecutor{desc}, std::invalid_argument);
}

/// One-layer image the loader would refuse but a caller can still build in
/// memory: the executor itself must reject the geometry, not divide by zero
/// or wrap the output extent.
QNetDesc single_layer(QLayer layer) {
  QNetDesc desc;
  desc.input_frac = 7;
  desc.layers.push_back(std::move(layer));
  return desc;
}

QConv conv_layer(std::size_t kernel, std::size_t stride) {
  QConv conv;
  conv.in_c = conv.out_c = 1;
  conv.kernel = kernel;
  conv.stride = stride;
  conv.packed_weights.assign((kernel * kernel + 1) / 2, 0);
  conv.bias_codes = {0};
  return conv;
}

TEST(Executor, RejectsDegenerateConvAndPoolGeometry) {
  Tensor images{Shape{1, 1, 3, 3}};
  images.fill(0.25f);

  // Sanity: a valid conv and pool run.
  EXPECT_NO_THROW(
      (void)AcceleratorExecutor{single_layer(conv_layer(3, 1))}.run(images));
  EXPECT_NO_THROW((void)AcceleratorExecutor{single_layer(QPool{})}.run(images));

  // Zero stride: the output extent would divide by zero.
  EXPECT_THROW(
      (void)AcceleratorExecutor{single_layer(conv_layer(3, 0))}.run(images),
      std::invalid_argument);
  QPool zero_stride_pool;
  zero_stride_pool.stride = 0;
  EXPECT_THROW(
      (void)AcceleratorExecutor{single_layer(zero_stride_pool)}.run(images),
      std::invalid_argument);

  // Window larger than the padded 3x3 input: the extent would wrap size_t.
  EXPECT_THROW(
      (void)AcceleratorExecutor{single_layer(conv_layer(5, 1))}.run(images),
      std::invalid_argument);
  QPool wide_pool;
  wide_pool.window = 4;
  EXPECT_THROW((void)AcceleratorExecutor{single_layer(wide_pool)}.run(images),
               std::invalid_argument);
}

/// Per-tap pool oracle: every tap of every window is bounds-tested, the
/// max pool converts the max (code 0 for a fully padded window) with
/// convert_code, and the avg pool decodes the tap sum with ldexp and
/// re-encodes it.
CodeTensor oracle_pool(const QPool& pool, const CodeTensor& input) {
  const Shape& s = input.shape;
  const std::size_t ih = s.h(), iw = s.w();
  const std::size_t oh = (ih + 2 * pool.pad - pool.window) / pool.stride + 1;
  const std::size_t ow = (iw + 2 * pool.pad - pool.window) / pool.stride + 1;
  CodeTensor out;
  out.shape = Shape{s.n(), s.c(), oh, ow};
  out.frac = pool.out_frac;
  out.codes.resize(out.shape.size());
  const quant::DfpFormat out_format{kInputBits, pool.out_frac};
  const float inv_area =
      1.0f / static_cast<float>(pool.window * pool.window);
  std::size_t out_i = 0;
  for (std::size_t n = 0; n < s.n(); ++n) {
    for (std::size_t c = 0; c < s.c(); ++c) {
      const std::size_t plane = (n * s.c() + c) * ih * iw;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          bool found = false;
          std::int32_t best = 0;
          std::int64_t sum = 0;
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
              const std::int32_t code =
                  input.codes[plane + static_cast<std::size_t>(iy) * iw +
                              static_cast<std::size_t>(ix)];
              if (!found || code > best) best = code;
              found = true;
              sum += code;
            }
          }
          if (pool.is_max) {
            out.codes[out_i] = static_cast<std::int8_t>(
                convert_code(found ? best : 0, input.frac, pool.out_frac));
          } else {
            const float value =
                static_cast<float>(std::ldexp(static_cast<double>(sum),
                                              -input.frac)) *
                inv_area;
            out.codes[out_i] =
                static_cast<std::int8_t>(out_format.encode(value));
          }
        }
      }
    }
  }
  return out;
}

TEST(PoolForward, ClippedWindowsMatchThePerTapOracle) {
  util::Rng rng{7};
  // Two channels of 5x3 and one of 1x4: odd, non-square, and thinner than
  // most windows, so edge, interior and fully padded windows all occur.
  for (const Shape& shape : {Shape{1, 2, 5, 3}, Shape{2, 1, 1, 4}}) {
    CodeTensor input;
    input.shape = shape;
    input.frac = 4;
    input.codes.resize(shape.size());
    for (std::size_t i = 0; i < input.codes.size(); ++i) {
      // Both code extremes and a spread between them.
      input.codes[i] = static_cast<std::int8_t>(
          i % 5 == 0 ? (i % 2 == 0 ? -128 : 127) : rng.uniform_int(-128, 127));
    }
    std::size_t fully_padded = 0;
    for (const bool is_max : {true, false}) {
      for (std::size_t window = 1; window <= 5; ++window) {
        for (std::size_t stride = 1; stride <= 3; ++stride) {
          for (std::size_t pad = 0; pad <= window + 1; ++pad) {
            if (shape.h() + 2 * pad < window || shape.w() + 2 * pad < window) {
              continue;
            }
            for (int delta = -3; delta <= 3; ++delta) {
              QPool pool;
              pool.is_max = is_max;
              pool.window = window;
              pool.stride = stride;
              pool.pad = pad;
              pool.out_frac = input.frac + delta;
              const CodeTensor want = oracle_pool(pool, input);
              CodeTensor got;
              pool_forward(pool, input, got);
              ASSERT_EQ(got.shape, want.shape);
              ASSERT_EQ(got.frac, want.frac);
              ASSERT_EQ(got.codes, want.codes)
                  << (is_max ? "max" : "avg") << " window=" << window
                  << " stride=" << stride << " pad=" << pad
                  << " delta=" << delta << " shape=" << shape.to_string();
              if (pad >= window) ++fully_padded;
            }
          }
        }
      }
    }
    EXPECT_GT(fully_padded, 0u);
  }
}

}  // namespace
}  // namespace mfdfp::hw
