// Shared pipeline driver for the accuracy benches (Table 2, Figure 3,
// ablations): dataset construction, float training, conversion, ensemble,
// and the derived hardware metrics.
//
// Setting MFDFP_QUICK=1 in the environment shrinks datasets/epochs ~4x for
// fast iteration; the full (default) settings are what EXPERIMENTS.md
// records.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/converter.hpp"
#include "core/ensemble.hpp"
#include "data/synthetic.hpp"
#include "hw/cycle_model.hpp"
#include "hw/executor.hpp"
#include "hw/qnet.hpp"
#include "nn/metrics.hpp"
#include "nn/zoo.hpp"
#include "quant/quantizer.hpp"
#include "util/logging.hpp"

namespace mfdfp::bench {

inline bool quick_mode() {
  const char* flag = std::getenv("MFDFP_QUICK");
  return flag != nullptr && flag[0] == '1';
}

/// One of the two paper benchmarks, at reduced synthetic scale.
struct BenchmarkSpec {
  std::string name;
  data::SyntheticSpec data;
  bool alexnet = false;       ///< alexnet_mini vs cifar10_net topology
  float width = 0.5f;
  // The float baseline must be trained to (near) convergence — as in the
  // paper — or the fine-tuning epochs of Algorithm 1 would dominate the
  // quantization effect and invert the float-vs-MF-DFP ordering.
  std::size_t float_epochs = 30;
  std::size_t phase1_epochs = 6;
  std::size_t phase2_epochs = 4;
};

inline BenchmarkSpec cifar_benchmark() {
  BenchmarkSpec spec;
  spec.name = "CIFAR-10 (synthetic)";
  spec.data = data::cifar_like_spec();
  spec.alexnet = false;
  if (quick_mode()) {
    spec.data.train_count = 300;
    spec.data.test_count = 120;
    spec.float_epochs = 4;
    spec.phase1_epochs = 2;
    spec.phase2_epochs = 2;
  }
  return spec;
}

inline BenchmarkSpec imagenet_benchmark() {
  BenchmarkSpec spec;
  spec.name = "ImageNet (synthetic)";
  spec.data = data::imagenet_like_spec();
  spec.alexnet = true;
  if (quick_mode()) {
    spec.data.train_count = 240;
    spec.data.test_count = 120;
    spec.float_epochs = 4;
    spec.phase1_epochs = 2;
    spec.phase2_epochs = 2;
  }
  return spec;
}

inline nn::ZooConfig zoo_config(const BenchmarkSpec& spec) {
  nn::ZooConfig config;
  config.in_channels = spec.data.channels;
  config.in_h = spec.data.height;
  config.in_w = spec.data.width;
  config.num_classes = spec.data.num_classes;
  config.width_multiplier = spec.width;
  return config;
}

inline nn::Network make_net(const BenchmarkSpec& spec, util::Rng& rng) {
  const nn::ZooConfig config = zoo_config(spec);
  return spec.alexnet ? nn::make_alexnet_mini(config, rng)
                      : nn::make_cifar10_net(config, rng);
}

/// The tiny MLP the serving ablations deploy: 3x16x16 input, 5 classes,
/// width 0.2, 12 hidden units, quantized on 8 uniform calibration samples
/// drawn from the same seeded stream as its weights.
inline hw::QNetDesc tiny_mlp_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  tensor::Tensor calibration{tensor::Shape{8, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "mlp");
}

/// Trains one float network for the benchmark (seeded).
inline nn::Network train_float(const BenchmarkSpec& spec,
                               const data::DatasetPair& ds,
                               std::uint64_t seed) {
  util::Rng rng{seed};
  nn::Network net = make_net(spec, rng);
  core::FloatTrainConfig config;
  config.max_epochs = spec.float_epochs;
  config.seed = seed;
  core::train_float_network(net, ds.train, ds.test, config);
  return net;
}

inline core::ConverterConfig converter_config(const BenchmarkSpec& spec,
                                              std::uint64_t seed) {
  core::ConverterConfig config;
  config.phase1_epochs = spec.phase1_epochs;
  config.phase2_epochs = spec.phase2_epochs;
  config.seed = seed;
  return config;
}

}  // namespace mfdfp::bench
