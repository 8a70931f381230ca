// Deploy-time compiler ablation: what the compiled plan buys on a
// conv-heavy network over the reference AcceleratorExecutor::run(), and how
// many bytes its lowered payload (weights, bias, tap offsets) holds.
//
// Two phases:
//  1. correctness — the plan's logits must be bit-identical to run() on the
//     same deployment image. The zero-padded sample and im2col only reorder
//     exact integer arithmetic, so any diff is a bug;
//  2. throughput — single-core batch throughput (min-of-repeats wall time)
//     of the plan vs run() on the same thread. Repeats of run() and of the
//     plan are interleaved, so host-speed drift hits both sides. The plan
//     must reach kMinSpeedup over run().
//
// The floor derivation: with int16 weights, the register-blocked int16
// multiply-add tile and the per-step routing, quick mode measured
// 98.2x-115.5x over run() in 8 runs (CIFAR-10 topology, batch 8, 4-vCPU
// x86-64 VM, default Release build). The floor is about 2/3 of the lowest
// run, 2/3 x 98.2 = 65.5, rounded down to 65x: a kernel regression back to
// the int32 one-dot-at-a-time loop (28x-32x on the same host) fails it. It
// never drops below the 18.5x the compiled path first had to clear
// (1.15x over an uncompiled batched path that measured up to 15.9x).
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

/// Single-core speedup floor of the compiled plan over run() (see file
/// comment).
constexpr double kMinSpeedup = 65.0;

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

  // ---- Phase 1: bit-identity ---------------------------------------------
  const Tensor reference = executor.run(images);
  const auto plan = compile::compile_qnet(desc, kInC, kInH, kInW);
  // One scratch kept across repeats, like a serving worker's.
  hw::ExecScratch scratch;
  const float diff = tensor::max_abs_diff(
      compile::run_plan_batch(*plan, images, scratch), reference);
  const bool bit_identical = diff == 0.0f;
  if (!bit_identical) std::printf("DIVERGED: max|diff| %g\n", diff);
  std::printf("phase 1: compiled logits bit-identical to run(): %s\n",
              bit_identical ? "yes" : "NO");

  // ---- Phase 2: single-core batch throughput ------------------------------
  // Warm (weights/taps resident, scratch grown by phase 1), one thread, min
  // over repeats; each repeat times run() and then the plan.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double reference_s = kInf;
  double plan_s = kInf;
  for (std::size_t r = 0; r < repeats; ++r) {
    reference_s = std::min(
        reference_s, seconds_of([&] { (void)executor.run(images); }));
    plan_s = std::min(plan_s, seconds_of([&] {
                        (void)compile::run_plan_batch(*plan, images, scratch);
                      }));
  }
  const double reference_rps = static_cast<double>(batch) / reference_s;
  const double compiled_rps = static_cast<double>(batch) / plan_s;
  const double compiled_speedup = compiled_rps / reference_rps;

  util::TablePrinter table("Compiled-plan batch throughput, one core (" +
                           std::to_string(batch) + "-sample batch, min of " +
                           std::to_string(repeats) + " interleaved repeats)");
  table.set_header({"path", "steps", "plan bytes", "throughput (samples/s)",
                    "speedup vs run()"});
  table.add_row({"reference run()", "-", "-",
                 util::fmt_fixed(reference_rps, 1), "1.00x"});
  table.add_row({"compiled plan", std::to_string(plan->stats.steps),
                 std::to_string(plan->stats.payload_bytes),
                 util::fmt_fixed(compiled_rps, 1),
                 util::fmt_fixed(compiled_speedup, 2) + "x"});
  table.print();

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
       << "  \"speedup_compiled\": " << compiled_speedup << ",\n"
       << "  \"plan_bytes\": " << plan->stats.payload_bytes << "\n"
       << "}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (!bit_identical) {
    std::printf("FAIL: the compiled plan diverged from run()\n");
    return 1;
  }
  if (compiled_speedup < kMinSpeedup) {
    std::printf("FAIL: the compiled plan reached %.2fx single-core batch "
                "throughput over run(), need >= %.1fx\n",
                compiled_speedup, kMinSpeedup);
    return 1;
  }
  std::printf("PASS (%.2fx)\n", compiled_speedup);
  return 0;
}
