// The load-bearing invariant of the hardware model: the integer shift-add
// executor must produce *bit-identical* logits to the fake-quantized
// software network, across architectures and random seeds.
#include "hw/executor.hpp"

#include <gtest/gtest.h>

#include "nn/zoo.hpp"

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

}  // namespace
}  // namespace mfdfp::hw
