// planlint: numeric static analysis of compiled plans, standalone.
//
// Compiles every zoo architecture at several input geometries, runs the
// interval-domain analyzer (src/analysis) over each CompiledPlan, and
// prints the per-layer bound table: worst-case dot range, accumulator
// bits, routed range before saturation, output code range, and clip mass.
// Exits nonzero if any plan fails a proof obligation — CI runs this over
// the whole zoo so "every deployable model is overflow-free" stays an
// enforced invariant, not a one-time observation.
//
// Usage:
//   planlint [--strict]
//
//   --strict   also fail on any layer that can saturate (clip mass > 0);
//              by default clip mass is reported but not fatal, matching
//              the deploy-time `analyze` pass.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "compile/passes.hpp"
#include "hw/qnet.hpp"
#include "nn/zoo.hpp"
#include "quant/quantizer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

struct Geometry {
  std::size_t c, h, w;
};

mfdfp::hw::QNetDesc build_qnet(const std::string& arch, const Geometry& g,
                               std::uint64_t seed) {
  using namespace mfdfp;
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = g.c;
  config.in_h = g.h;
  config.in_w = g.w;
  config.num_classes = 10;
  config.width_multiplier = g.h <= 16 ? 0.25f : 0.5f;
  nn::Network net = [&] {
    if (arch == "cifar") return nn::make_cifar10_net(config, rng);
    if (arch == "alexnet") return nn::make_alexnet_mini(config, rng);
    return nn::make_mlp(config, 32, rng);
  }();
  tensor::Tensor calibration{tensor::Shape{8, g.c, g.h, g.w}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, arch);
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else {
      std::fprintf(stderr, "planlint: unknown argument '%s'\n", argv[i]);
      std::fprintf(stderr, "usage: planlint [--strict]\n");
      return 2;
    }
  }

  const std::vector<std::string> archs = {"cifar", "alexnet", "mlp"};
  // Zoo conv nets require spatial dims divisible by 8 (three 2x2 pools).
  const std::vector<Geometry> geometries = {
      {3, 16, 16}, {3, 32, 32}, {1, 24, 24}};

  mfdfp::analysis::AnalysisOptions options;
  options.fail_on_clip = strict;

  int unsafe = 0;
  std::uint64_t seed = 1;
  for (const std::string& arch : archs) {
    for (const Geometry& g : geometries) {
      const mfdfp::hw::QNetDesc desc = build_qnet(arch, g, seed++);
      // Lower without the deploy-time proof: planlint wants the full report
      // table even for a plan compile_qnet would reject.
      const mfdfp::compile::CompiledPlan plan =
          mfdfp::compile::lower_qnet(desc, g.c, g.h, g.w);
      const mfdfp::analysis::AnalysisReport report =
          mfdfp::analysis::analyze_plan(plan, options);

      std::printf("== %s @ %zux%zux%zu ==\n", arch.c_str(), g.c, g.h, g.w);
      std::printf("%s", report.table().c_str());
      std::printf("%s\n\n", report.summary().c_str());
      if (!report.ok()) ++unsafe;
    }
  }

  if (unsafe != 0) {
    std::fprintf(stderr, "planlint: %d plan(s) failed analysis\n", unsafe);
    return 1;
  }
  std::printf("planlint: all plans proven safe\n");
  return 0;
}
