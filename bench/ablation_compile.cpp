// Deploy-time compiler ablation: what the compiled plan buys on a
// conv-heavy network over the reference AcceleratorExecutor::run(), and
// what the specialization pass adds on top.
//
// Two phases:
//  1. correctness — every variant's logits (full pipeline, specialization
//     off) must be bit-identical to run() on the same deployment image.
//     im2col and specialization only reorder exact integer arithmetic, so
//     any diff is a bug;
//  2. throughput — single-core batch throughput (min-of-repeats wall time)
//     of each variant vs run() on the same thread. Repeats of run() and of
//     every plan are interleaved, so host-speed drift hits both sides. The
//     full pipeline must reach kMinSpeedup over run().
//
// The floor derivation: compiled plans replaced an uncompiled batched
// executor path that measured 12.1x-15.9x over run() in 7 interleaved
// probes (CIFAR-10 topology, batches 8 and 32, 4-vCPU x86 VM). The old
// gate was >= 1.15x over that path, so the floor is 1.15 x 15.9 = 18.2,
// rounded up to 18.5x. Compiled plans measured 27x-33x on the same host.
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_compile.json);
// scripts/run_bench.sh folds it into BENCH_serve.json next to the git SHA.
// Exits nonzero when bit-identity or the speedup floor fails. MFDFP_QUICK=1
// shrinks batch size and repeat count.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 32, kInW = 32;

/// Conv-heavy deployment image: the paper's CIFAR-10 topology at full width
/// on 3x32x32 inputs (untrained weights — throughput and bit-identity do
/// not care about accuracy).
hw::QNetDesc make_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 10;
  config.width_multiplier = 1.0f;
  nn::Network net = nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{8, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "cifar10");
}

/// Full-pipeline single-core speedup floor over run() (see file comment).
constexpr double kMinSpeedup = 18.5;

struct Variant {
  std::string name;
  compile::CompileOptions options;
};

std::vector<Variant> make_variants() {
  std::vector<Variant> variants;
  variants.push_back({"full pipeline", {}});
  Variant no_spec{"specialization off", {}};
  no_spec.options.specialize = false;
  variants.push_back(no_spec);
  return variants;
}

/// Single-thread wall time of one call, seconds.
template <typename Fn>
double seconds_of(Fn&& fn) {
  util::Stopwatch watch;
  fn();
  return watch.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_compile.json";
  const std::size_t batch = bench::quick_mode() ? 8 : 32;
  const std::size_t repeats = bench::quick_mode() ? 3 : 7;

  const hw::QNetDesc desc = make_qnet(117);
  util::Rng rng{118};
  Tensor images{Shape{batch, kInC, kInH, kInW}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  const hw::AcceleratorExecutor executor(desc);

  // ---- Phase 1: bit-identity of every variant -----------------------------
  const Tensor reference = executor.run(images);
  bool bit_identical = true;

  const std::vector<Variant> variants = make_variants();
  std::vector<std::shared_ptr<const compile::CompiledPlan>> plans;
  // One scratch per variant, kept across repeats like a serving worker's.
  std::vector<hw::ExecScratch> scratches(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const Variant& variant = variants[v];
    plans.push_back(
        compile::compile_qnet(desc, kInC, kInH, kInW, variant.options));
    const Tensor logits = compile::run_plan_batch(*plans.back(), images,
                                                  scratches[v]);
    const float diff = tensor::max_abs_diff(logits, reference);
    if (diff != 0.0f) {
      bit_identical = false;
      std::printf("DIVERGED: %s (max|diff| %g)\n", variant.name.c_str(),
                  diff);
    }
  }
  std::printf("phase 1: compiled logits bit-identical to run() across %zu "
              "variants: %s\n",
              variants.size(), bit_identical ? "yes" : "NO");

  // ---- Phase 2: single-core batch throughput ------------------------------
  // Warm (weights/tables resident, scratch grown by phase 1), one thread,
  // min over repeats; each repeat times run() and then every plan.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double reference_s = kInf;
  std::vector<double> plan_s(variants.size(), kInf);
  for (std::size_t r = 0; r < repeats; ++r) {
    reference_s = std::min(
        reference_s, seconds_of([&] { (void)executor.run(images); }));
    for (std::size_t v = 0; v < variants.size(); ++v) {
      plan_s[v] = std::min(plan_s[v], seconds_of([&] {
                             (void)compile::run_plan_batch(*plans[v], images,
                                                           scratches[v]);
                           }));
    }
  }
  const double reference_rps = static_cast<double>(batch) / reference_s;

  util::TablePrinter table("Compiled-plan batch throughput, one core (" +
                           std::to_string(batch) + "-sample batch, min of " +
                           std::to_string(repeats) + " interleaved repeats)");
  table.set_header({"variant", "steps", "specialized",
                    "throughput (samples/s)", "speedup vs run()"});
  table.add_row({"reference run()", "-", "-",
                 util::fmt_fixed(reference_rps, 1), "1.00x"});

  std::vector<double> speedups;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& plan = *plans[v];
    const double rps = static_cast<double>(batch) / plan_s[v];
    speedups.push_back(rps / reference_rps);
    table.add_row({variants[v].name, std::to_string(plan.stats.steps),
                   std::to_string(plan.stats.specialized),
                   util::fmt_fixed(rps, 1),
                   util::fmt_fixed(speedups.back(), 2) + "x"});
  }
  table.print();

  const double compiled_speedup = speedups.front();  // full pipeline row

  // ---- Report + acceptance ------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ablation_compile\",\n"
       << "  \"batch\": " << batch << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"rps_reference\": " << reference_rps << ",\n"
       << "  \"speedup_floor\": " << kMinSpeedup << ",\n"
       << "  \"speedup_compiled\": " << speedups[0] << ",\n"
       << "  \"speedup_specialize_off\": " << speedups[1] << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (!bit_identical) {
    std::printf("FAIL: a compiled variant diverged from run()\n");
    return 1;
  }
  if (compiled_speedup < kMinSpeedup) {
    std::printf("FAIL: full pipeline reached %.2fx single-core batch "
                "throughput over run(), need >= %.1fx\n",
                compiled_speedup, kMinSpeedup);
    return 1;
  }
  std::printf("PASS (%.2fx)\n", compiled_speedup);
  return 0;
}
