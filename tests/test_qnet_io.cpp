#include "hw/qnet_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "hw/executor.hpp"
#include "nn/zoo.hpp"

namespace mfdfp::hw {
namespace {

using tensor::Shape;
using tensor::Tensor;

QNetDesc sample_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 2;
  config.in_h = config.in_w = 8;
  config.num_classes = 4;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{6, 2, 8, 8}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return extract_qnet(net, spec, "sample-" + std::to_string(seed));
}

TEST(QNetIo, ByteRoundTripPreservesEverything) {
  const QNetDesc original = sample_qnet(1);
  const QNetDesc parsed = qnet_from_bytes(qnet_to_bytes(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.input_frac, original.input_frac);
  ASSERT_EQ(parsed.layers.size(), original.layers.size());
  EXPECT_EQ(parsed.parameter_bytes(), original.parameter_bytes());
}

TEST(QNetIo, RoundTripIsFunctionallyIdentical) {
  const QNetDesc original = sample_qnet(2);
  const QNetDesc parsed = qnet_from_bytes(qnet_to_bytes(original));
  const AcceleratorExecutor exec_a(original);
  const AcceleratorExecutor exec_b(parsed);
  util::Rng rng{3};
  Tensor images{Shape{3, 2, 8, 8}};
  images.fill_uniform(rng, -1.0f, 1.0f);
  EXPECT_EQ(tensor::max_abs_diff(exec_a.run(images), exec_b.run(images)),
            0.0f);
}

TEST(QNetIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mfdfp_image.bin").string();
  const QNetDesc original = sample_qnet(4);
  save_qnet(original, path);
  const QNetDesc loaded = load_qnet(path);
  EXPECT_EQ(qnet_to_bytes(loaded), qnet_to_bytes(original));
  std::remove(path.c_str());
}

TEST(QNetIo, RejectsCorruption) {
  const QNetDesc original = sample_qnet(5);
  std::string bytes = qnet_to_bytes(original);
  EXPECT_THROW(qnet_from_bytes(bytes.substr(0, bytes.size() - 3)),
               std::runtime_error);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(qnet_from_bytes(bad_magic), std::runtime_error);
  EXPECT_THROW(qnet_from_bytes(bytes + "xx"), std::runtime_error);
  EXPECT_THROW(load_qnet("/nonexistent/image.bin"), std::runtime_error);
}

TEST(QNetIo, DetectsBlobSizeMismatch) {
  QNetDesc desc;
  desc.input_frac = 7;
  QConv conv;
  conv.in_c = 1;
  conv.out_c = 1;
  conv.kernel = 3;
  conv.packed_weights.assign(2, 0);  // should be (9+1)/2 = 5
  conv.bias_codes.assign(1, 0);
  desc.layers.emplace_back(conv);
  const std::string bytes = qnet_to_bytes(desc);
  EXPECT_THROW(qnet_from_bytes(bytes), std::runtime_error);
}

/// One-layer conv image with correctly sized (zero) weight and bias blobs.
QNetDesc single_conv(std::size_t kernel, std::size_t stride) {
  QNetDesc desc;
  desc.input_frac = 7;
  QConv conv;
  conv.in_c = 1;
  conv.out_c = 1;
  conv.kernel = kernel;
  conv.stride = stride;
  conv.packed_weights.assign((kernel * kernel + 1) / 2, 0);
  conv.bias_codes.assign(1, 0);
  desc.layers.emplace_back(std::move(conv));
  return desc;
}

QNetDesc single_pool(std::size_t window, std::size_t stride) {
  QNetDesc desc;
  desc.input_frac = 7;
  QPool pool;
  pool.window = window;
  pool.stride = stride;
  desc.layers.emplace_back(pool);
  return desc;
}

// A zero stride divides by zero in the output-extent arithmetic, and a zero
// kernel/window is meaningless: the loader refuses both instead of handing
// the executor an image that would crash it.
TEST(QNetIo, RejectsZeroStrideKernelOrWindow) {
  EXPECT_NO_THROW((void)qnet_from_bytes(qnet_to_bytes(single_conv(3, 1))));
  EXPECT_THROW((void)qnet_from_bytes(qnet_to_bytes(single_conv(3, 0))),
               std::runtime_error);
  EXPECT_THROW((void)qnet_from_bytes(qnet_to_bytes(single_conv(0, 1))),
               std::runtime_error);
  EXPECT_NO_THROW((void)qnet_from_bytes(qnet_to_bytes(single_pool(2, 2))));
  EXPECT_THROW((void)qnet_from_bytes(qnet_to_bytes(single_pool(2, 0))),
               std::runtime_error);
  EXPECT_THROW((void)qnet_from_bytes(qnet_to_bytes(single_pool(0, 2))),
               std::runtime_error);
}

}  // namespace
}  // namespace mfdfp::hw
