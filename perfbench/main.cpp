// The repository benchmark. Drives the serving stack, the deploy-time
// compiler, the plan and capacity analyzers and the simulated accelerator
// through their public entry points on one of three workloads, checks every
// served logit bit-for-bit against the reference AcceleratorExecutor::run(),
// and prints every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <offline_cifar|interactive_mlp|shared_pu_flood>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures `seconds` with tracing off and reports the end-to-end
// metrics. --trace 1 runs an untraced base window of seconds/4, then a
// traced window of `seconds`; it reports the per-layer metrics and the
// tracing overhead (traced window against the base window) and writes the
// benchmark-side spans as Chrome trace JSON. The seed makes the image pool
// and the arrival schedule; the model weights are fixed. METRICS.md maps
// every metric to the workload and end-to-end metric it should move.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/capacity.hpp"
#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "hw/executor.hpp"
#include "hw/layer_profile.hpp"
#include "hw/qnet_io.hpp"
#include "nn/zoo.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

/// Warm-up before the first reported window, seconds.
constexpr double kWarmupSeconds = 2.0;
/// Cold set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 21;
/// Requests per group of the grouped end-to-end latency statistics.
constexpr std::size_t kLatencyGroup = 1000;
/// Which group the end-to-end latency statistics report: the one at this
/// rank from the best end (the 10th percentile of group latencies, the
/// 90th of group attainments). See split_groups().
constexpr double kQuietRank = 0.10;
/// Fewest groups worth ranking; a shorter stream stays one group.
constexpr std::size_t kMinGroups = 10;
/// A percentile is reported only with at least this many samples beyond it.
constexpr std::size_t kMinTail = 10;
/// Scrape period of the concurrent export_metrics()/capacity_report() probe.
constexpr std::int64_t kScrapePeriodNs = 1'000'000'000;
/// Span buffer bound of a traced run.
constexpr std::size_t kSpanCapacity = 600'000;

// offline_cifar
constexpr std::size_t kCifarInFlight = 64;
constexpr std::size_t kCifarPool = 32;
// interactive_mlp
constexpr double kMlpRate = 8000.0;
constexpr double kMlpLimitUs = 1000.0;
constexpr std::size_t kMlpPool = 256;
// shared_pu_flood: the placement and envelopes of
// bench/envelopes/shared_pu_preempt.envelope with every modeled time
// (sample, switch, granularity, batching and coalesce windows, deadline)
// scaled by kPuScale, and tenant a's probes sent one at a time at
// kProbeRate. At the envelope's own scale a probe's tail is a few ms, and
// on a 4-vCPU virtual machine host timer noise of a few ms decided it.
// Sent as the envelope's 4-probe bursts at 40 req/s (times x10), a 25 s
// window holds 250 bursts, and a tail of so few does not repeat: the p99
// spread 0.1-0.35 (IQR / median) over ten seeds. Bursts also make the
// figure depend on the host: tenant a's four workers race for a burst's
// probes, so whether it rides one pass or several follows host wake-up
// latency (mean batch 2.95 with idle host CPUs, 3.77 with busy ones, p99
// 31% apart). Single probes at 160 req/s give 4000 independent samples per
// window, and idle against busy host CPUs moved their p99 by 0-16%. The
// declared envelope keeps its 4-probe burst, so the latency limit stays the
// bound the analyzer proves for that envelope.
constexpr double kProbeRate = 160.0;
constexpr std::size_t kEnvelopeBurst = 4;
constexpr std::size_t kFloodBacklog = 64;
/// Extra backlog above kFloodBacklog, in samples: longer in modeled PU time
/// than a probe's flight, during which the backlog is not topped up.
constexpr std::size_t kFloodMargin = 96;
constexpr double kPuScale = 2.5;
constexpr double kPuSampleUs = 400.0 * kPuScale;
constexpr double kPuSwitchUs = 1000.0 * kPuScale;
constexpr double kPuGranularityUs = 4000.0 * kPuScale;
constexpr std::size_t kPuMaxPassSamples = 32;
constexpr std::size_t kFloodPool = 64;

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds <= 0");
  return args;
}

// ---- small statistics -------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile with the number of samples beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const { return n > 0 && beyond >= kMinTail; }
};

Percentile percentile(std::vector<double> values, double q) {
  Percentile out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(out.n))));
  out.value = values[std::min(rank, out.n) - 1];
  out.beyond = out.n - std::min(rank, out.n);
  return out;
}

/// Splits `values` (completion order) into consecutive groups of
/// kLatencyGroup; the remainder joins the last group, and fewer than
/// kMinGroups groups' worth of values stay one group. The end-to-end
/// latency statistics are computed per group and reported for the group
/// kQuietRank from the best end: a stall of the shared host (the run is a
/// few host threads on a virtual machine whose CPUs the hypervisor also
/// lends elsewhere) delays every request of the groups it overlaps, so the
/// worse groups measure the host, while a change to the serving code
/// shifts every group, the quiet ones included.
std::vector<std::vector<double>> split_groups(
    const std::vector<double>& values) {
  std::size_t count = values.size() / kLatencyGroup;
  if (count < kMinGroups) count = 1;
  std::vector<std::vector<double>> groups;
  for (std::size_t g = 0; g < count; ++g) {
    const auto begin =
        values.begin() + static_cast<std::ptrdiff_t>(g * kLatencyGroup);
    const auto end = g + 1 == count
                         ? values.end()
                         : begin + static_cast<std::ptrdiff_t>(kLatencyGroup);
    groups.emplace_back(begin, end);
  }
  return groups;
}

/// Percentile `q` of each group, reported for the kQuietRank group; `beyond`
/// is the thinnest group tail.
Percentile grouped_percentile(const std::vector<double>& values, double q,
                              std::size_t* groups) {
  const auto parts = split_groups(values);
  *groups = parts.size();
  if (parts.size() == 1) return percentile(values, q);
  std::vector<double> per_group;
  Percentile out;
  out.n = values.size();
  out.beyond = values.size();
  for (const auto& part : parts) {
    const Percentile p = percentile(part, q);
    per_group.push_back(p.value);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = percentile(per_group, kQuietRank).value;
  return out;
}

/// Mean of each group of 0/1 outcomes, reported for the kQuietRank group
/// from the top.
double grouped_share(const std::vector<double>& outcomes) {
  std::vector<double> per_group;
  for (const auto& part : split_groups(outcomes)) {
    double sum = 0.0;
    for (const double x : part) sum += x;
    per_group.push_back(part.empty() ? 0.0
                                     : sum / static_cast<double>(part.size()));
  }
  return percentile(per_group, 1.0 - kQuietRank).value;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- report -----------------------------------------------------------------

/// Named metrics in print order, plus human-readable notes.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }

  /// A percentile metric; dropped (printed, not reported) when fewer than
  /// kMinTail samples lie beyond it (in every group, for grouped ones).
  void add(const std::string& name, const Percentile& p,
           const std::string& unit, std::size_t groups = 1) {
    std::string note = "n=" + std::to_string(p.n) + ", " +
                       std::to_string(p.beyond) + " beyond";
    if (groups > 1) {
      note += " per group; group at rank " +
              std::to_string(static_cast<int>(kQuietRank * 100)) +
              "% from the best of " + std::to_string(groups);
    }
    if (p.supported()) {
      add(name, p.value, unit, note);
    } else {
      dropped_.push_back(name + " (" + note + ")");
    }
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-48s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    for (const std::string& d : dropped_) {
      std::printf("dropped percentile %s: fewer than %zu samples beyond\n",
                  d.c_str(), kMinTail);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> dropped_;
};

// ---- inputs -----------------------------------------------------------------

/// One served model: its serialized deployment image, input geometry, and
/// the reference logits of every pooled input.
struct ModelInput {
  std::string name;   ///< deployment name
  std::string tag;    ///< metric tag ("cifar", "mlp")
  std::string image;  ///< qnet_to_bytes output
  std::size_t c = 0, h = 0, w = 0;
  std::vector<Tensor> reference;  ///< per pool entry, run() logits
};

hw::QNetDesc quantized(nn::Network net, const nn::ZooConfig& config,
                       util::Rng& rng, const std::string& name) {
  Tensor calibration{Shape{8, config.in_channels, config.in_h, config.in_w}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, name);
}

/// The paper's CIFAR-10 topology at full width on 3x32x32 (the
/// ablation_compile network; untrained weights).
hw::QNetDesc make_cifar_qnet() {
  util::Rng rng{117};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 32;
  config.num_classes = 10;
  config.width_multiplier = 1.0f;
  return quantized(nn::make_cifar10_net(config, rng), config, rng, "cifar10");
}

/// The ablation_shared_pu MLP: 3x16x16 -> 12 -> 5.
hw::QNetDesc make_mlp_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  return quantized(nn::make_mlp(config, 12, rng), config, rng, "mlp");
}

std::vector<Tensor> make_pool(std::uint64_t seed, std::size_t count,
                              std::size_t c, std::size_t h, std::size_t w) {
  util::Rng rng{seed};
  std::vector<Tensor> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor sample{Shape{1, c, h, w}};
    sample.fill_uniform(rng, -1.0f, 1.0f);
    pool.push_back(std::move(sample));
  }
  return pool;
}

ModelInput make_model(const std::string& name, const std::string& tag,
                      const hw::QNetDesc& desc, std::size_t c, std::size_t h,
                      std::size_t w, const std::vector<Tensor>& pool) {
  ModelInput model{name, tag, hw::qnet_to_bytes(desc), c, h, w, {}};
  const hw::AcceleratorExecutor reference(desc);
  // run() is const and allocates per call: split the pool over 4 threads.
  constexpr std::size_t kThreads = 4;
  model.reference.resize(pool.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < pool.size(); i += kThreads) {
        model.reference[i] = reference.run(pool[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return model;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Arrival times of a Poisson process on [begin, end) conditioned on exactly
/// `count` arrivals (sorted uniforms), so every seed sends the same number
/// of requests per phase.
std::vector<std::int64_t> poisson_arrivals(util::Rng& rng, std::size_t count,
                                           std::int64_t begin,
                                           std::int64_t end) {
  std::vector<std::int64_t> times(count);
  for (auto& t : times) {
    t = begin + static_cast<std::int64_t>(rng.uniform() *
                                          static_cast<double>(end - begin));
  }
  std::sort(times.begin(), times.end());
  return times;
}

// ---- run bookkeeping --------------------------------------------------------

enum Phase : std::size_t { kWarmup = 0, kBase = 1, kMeasured = 2 };
constexpr const char* kPhaseNames[] = {"warmup", "base", "measured"};
constexpr std::size_t kPhases = 3;

struct PhaseWindow {
  Phase phase;
  std::int64_t begin_ns;  ///< absolute steady-clock time
  std::int64_t end_ns;
};

/// Requests sent / succeeded / failed of one phase, plus the per-request
/// samples of its latency stream.
struct PhaseRecord {
  std::uint64_t sent = 0, ok = 0, failed = 0, mismatched = 0;
  /// Per latency-stream request, completion order: 1 when it returned kOk
  /// within the limit, else 0 (failed requests included).
  std::vector<double> met;
  std::vector<double> client_us, queue_us, service_us, submit_us, overhead_us,
      lag_us;
};

/// Runner::complete() stamp: block in get() and take its return time.
constexpr std::int64_t kWait = -1;

/// One submitted request awaiting its response.
struct Pending {
  std::future<serve::Response> future;
  std::uint64_t request_id = 0;
  std::size_t model = 0;
  std::size_t image = 0;
  Phase phase = kWarmup;
  bool latency_stream = false;
  std::int64_t due_ns = 0;
  double submit_us = 0.0;
  double lag_us = 0.0;
};

/// Per-phase outcome tally of the load-generator thread; every kOk
/// response's logits are checked against the reference.
class Tracker {
 public:
  Tracker(const std::vector<ModelInput>& models, double limit_us)
      : models_(models), limit_us_(limit_us) {}

  void sent(const Pending& p) {
    ++phases_[p.phase].sent;
  }

  void done(const Pending& p, const serve::Response& response,
            std::int64_t done_ns) {
    const bool ok = serve::ok(response.status);
    const bool match =
        ok && bit_identical(response.logits,
                            models_[p.model].reference[p.image]);
    PhaseRecord& r = phases_[p.phase];
    const double client_us = static_cast<double>(done_ns - p.due_ns) / 1e3;
    if (p.latency_stream) {
      const bool in_limit = limit_us_ <= 0.0 || client_us <= limit_us_;
      r.met.push_back(ok && match && in_limit ? 1.0 : 0.0);
    }
    if (!ok) {
      ++r.failed;
      return;
    }
    if (!match) {
      ++r.mismatched;
      return;
    }
    ++r.ok;
    if (!p.latency_stream) return;
    r.client_us.push_back(client_us);
    r.queue_us.push_back(static_cast<double>(response.queue_wait_us));
    r.service_us.push_back(static_cast<double>(response.service_us));
    r.submit_us.push_back(p.submit_us);
    r.overhead_us.push_back(client_us - static_cast<double>(response.e2e_us));
    r.lag_us.push_back(p.lag_us);
  }

  [[nodiscard]] PhaseRecord phase(Phase phase) const {
    return phases_[phase];
  }

  [[nodiscard]] std::uint64_t mismatched_total() const {
    std::uint64_t total = setup_mismatched_;
    for (const PhaseRecord& r : phases_) total += r.mismatched;
    return total;
  }

  void setup_mismatch() {
    ++setup_mismatched_;
  }

  void set_limit_us(double limit_us) {
    limit_us_ = limit_us;
  }

 private:
  const std::vector<ModelInput>& models_;
  double limit_us_;
  PhaseRecord phases_[kPhases];
  std::uint64_t setup_mismatched_ = 0;
};

/// Once-per-second concurrent scrape of export_metrics() and
/// capacity_report(), timing each call.
class Scraper {
 public:
  Scraper(const serve::ModelServer& server, SpanRecorder& spans)
      : server_(server), spans_(spans), thread_([this] { run(); }) {}
  ~Scraper() { stop(); }

  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> export_us, export_bytes, capacity_us;

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::nanoseconds(kScrapePeriodNs),
                         [this] { return stopped_; })) {
      lock.unlock();
      std::int64_t start = now_ns();
      std::size_t bytes = 0;
      {
        const ScopedSpan span(spans_, "export_metrics");
        bytes = server_.export_metrics().size();
      }
      const std::int64_t mid = now_ns();
      {
        const ScopedSpan span(spans_, "capacity_report");
        (void)server_.capacity_report();
      }
      const std::int64_t end = now_ns();
      lock.lock();
      export_us.push_back(static_cast<double>(mid - start) / 1e3);
      export_bytes.push_back(static_cast<double>(bytes));
      capacity_us.push_back(static_cast<double>(end - mid) / 1e3);
    }
  }

  const serve::ModelServer& server_;
  SpanRecorder& spans_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

/// Window-boundary view of the served system.
struct Snapshot {
  std::int64_t at_ns = 0;
  std::uint64_t completed = 0;  ///< kOk, summed over models
  std::vector<hw::LayerProfile> profiles;  ///< first member per model
  std::optional<serve::SharedDeviceSnapshot> pu;
};

// ---- workload plumbing ------------------------------------------------------

class Runner;
struct Served;

struct Workload {
  std::vector<ModelInput> models;
  std::vector<Tensor> pool;
  /// Deploys every model of `models` (this workload's) from freshly
  /// decoded images, creating the shared PU when the workload has one;
  /// returns the qnet_from_bytes time, ms.
  std::function<double(serve::ModelServer&,
                       std::shared_ptr<serve::SharedDevice>&,
                       const std::vector<ModelInput>& models, SpanRecorder&,
                       std::uint64_t parent)>
      deploy;
  /// Submit options per model.
  std::vector<serve::SubmitOptions> options;
  double limit_us = 0.0;  ///< latency limit (0 = none)
  /// The load generator.
  void (*drive)(Runner&, const Served&) = nullptr;
  /// Closed loop: the tracing overhead compares throughput, not latency.
  bool closed_loop = false;
};

struct Served {
  std::unique_ptr<serve::ModelServer> server;
  std::shared_ptr<serve::SharedDevice> pu;
};

/// Everything one run measures, before it is turned into metrics.
struct RunData {
  std::vector<double> setup_s, from_bytes_ms;
  Snapshot at[kPhases + 1];  ///< at[p] = start of phase p; at[kPhases] = end
  bool has_phase[kPhases] = {};
  std::vector<double> export_us, export_bytes, capacity_us;
  serve::StatsSnapshot stats;  ///< summed over models at the end
  std::uint64_t batches = 0;
  double batch_size_mean = 0.0;
  double modeled_us_per_sample = 0.0;
  double modeled_dma_bytes_per_sample = 0.0;
  double plan_cache_hit_ratio = 0.0;
  double limit_us = 0.0;
};

class Runner {
 public:
  Runner(const Args& args, const Workload& workload)
      : args_(args),
        workload_(workload),
        spans_(args.trace ? kSpanCapacity : 0),
        tracker_(workload.models, workload.limit_us) {
    data_.limit_us = workload.limit_us;
  }

  /// Cold set-ups (decode + deploy + first kOk), the last one kept serving.
  Served set_up() {
    Served kept;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
      Served served;
      served.server = std::make_unique<serve::ModelServer>();
      const std::int64_t start = now_ns();
      {
        const ScopedSpan root(spans_, "setup");
        data_.from_bytes_ms.push_back(
            workload_.deploy(*served.server, served.pu, workload_.models,
                             spans_, root.id()));
        const ModelInput& first = workload_.models.front();
        std::future<serve::Response> future;
        {
          const ScopedSpan span(spans_, "submit", root.id());
          future = served.server->submit(first.name, workload_.pool.front(),
                                         workload_.options.front());
        }
        serve::Response response;
        {
          const ScopedSpan span(spans_, "get", root.id());
          response = future.get();
        }
        if (!serve::ok(response.status)) {
          throw std::runtime_error("set-up request failed: " +
                                   response.detail);
        }
        if (!bit_identical(response.logits, first.reference.front())) {
          tracker_.setup_mismatch();
        }
      }
      data_.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
      if (rep + 1 == kSetupRepeats) kept = std::move(served);
      // Earlier servers shut down here, outside the timed region.
    }
    return kept;
  }

  Snapshot snapshot(const Served& served) {
    Snapshot s;
    s.at_ns = now_ns();
    for (const ModelInput& model : workload_.models) {
      {
        const ScopedSpan span(spans_, "stats");
        s.completed += served.server->stats(model.name).completed;
      }
      const ScopedSpan span(spans_, "layer_profiles");
      const auto profiles = served.server->engine(model.name)->layer_profiles();
      s.profiles.push_back(profiles.empty() ? hw::LayerProfile{}
                                            : profiles.front());
    }
    if (served.pu) {
      const ScopedSpan span(spans_, "snapshot");
      s.pu = served.pu->snapshot();
    }
    return s;
  }

  /// Phase windows from `start_ns`: warm-up, [base], measured.
  std::vector<PhaseWindow> windows(std::int64_t start_ns) const {
    const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
    std::vector<PhaseWindow> out;
    std::int64_t t = start_ns;
    out.push_back({kWarmup, t, t + ns(kWarmupSeconds)});
    t = out.back().end_ns;
    if (args_.trace) {
      out.push_back({kBase, t, t + ns(args_.seconds / 4.0)});
      t = out.back().end_ns;
    }
    out.push_back({kMeasured, t, t + ns(args_.seconds)});
    return out;
  }

  /// Called by the load generator as it crosses into `phase` (and with
  /// kPhases at the end of the last one).
  void phase_boundary(const Served& served, std::size_t phase) {
    if (phase_span_.id != 0) {
      phase_span_.end_ns = now_ns();
      spans_.record(phase_span_);
      phase_span_ = {};
    }
    spans_.set_enabled(args_.trace && phase >= kMeasured);
    if (phase < kPhases) data_.has_phase[phase] = true;
    data_.at[phase] = snapshot(served);
    if (phase < kPhases && spans_.enabled()) {
      phase_span_.name = kPhaseNames[phase];
      phase_span_.id = spans_.next_id();
      phase_span_.tid = thread_tag();
      phase_span_.start_ns = now_ns();
    }
  }

  Pending submit(const Served& served, std::size_t model, std::size_t image,
                 Phase phase, bool latency_stream, std::int64_t due_ns) {
    Pending p;
    p.model = model;
    p.image = image;
    p.phase = phase;
    p.latency_stream = latency_stream;
    p.due_ns = due_ns;
    p.request_id = ++last_request_;
    Tensor sample = workload_.pool[image];
    const std::int64_t start = now_ns();
    {
      const ScopedSpan span(spans_, "submit", phase_span_.id, p.request_id);
      p.future = served.server->submit(workload_.models[model].name,
                                       std::move(sample),
                                       workload_.options[model]);
    }
    const std::int64_t end = now_ns();
    p.submit_us = static_cast<double>(end - start) / 1e3;
    p.lag_us = static_cast<double>(start - due_ns) / 1e3;
    tracker_.sent(p);
    return p;
  }

  /// Resolves one pending request: `done_ns` is when it was seen ready,
  /// or kWait to block in get() and stamp its return.
  void complete(Pending& p, std::int64_t done_ns) {
    serve::Response response;
    {
      const ScopedSpan span(spans_, "get", phase_span_.id, p.request_id);
      response = p.future.get();
    }
    tracker_.done(p, response, done_ns == kWait ? now_ns() : done_ns);
  }

  void finish(Served& served) {
    for (const ModelInput& model : workload_.models) {
      const serve::StatsSnapshot s = served.server->stats(model.name);
      data_.stats.completed += s.completed;
      data_.stats.shedded += s.shedded;
      data_.stats.timed_out += s.timed_out;
      data_.stats.rejected += s.rejected;
      data_.batch_size_mean +=
          s.mean_batch_size * static_cast<double>(s.batches);
      data_.batches += s.batches;
    }
    if (data_.batches > 0) {
      data_.batch_size_mean /= static_cast<double>(data_.batches);
    }
    const auto engine = served.server->engine(workload_.models.front().name);
    data_.modeled_us_per_sample = engine->simulated_sample_us();
    data_.modeled_dma_bytes_per_sample = engine->simulated_batch_dma_bytes(1);
    const compile::PlanCacheStats cache = served.server->plan_cache()->stats();
    const auto lookups = static_cast<double>(cache.hits + cache.misses);
    data_.plan_cache_hit_ratio =
        lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    served.server->shutdown();
  }

  void set_limit_us(double limit_us) {
    data_.limit_us = limit_us;
    tracker_.set_limit_us(limit_us);
  }

  const Args& args() const { return args_; }
  const Workload& workload() const { return workload_; }
  SpanRecorder& spans() { return spans_; }
  Tracker& tracker() { return tracker_; }
  RunData& data() { return data_; }

 private:
  const Args& args_;
  const Workload& workload_;
  SpanRecorder spans_;
  Tracker tracker_;
  RunData data_;
  std::uint64_t last_request_ = 0;
  SpanRecord phase_span_;  ///< the open phase's span (id 0 = none)
};

/// Runs the scrape thread over `body`, keeping its samples.
template <typename Body>
void with_scraper(Runner& runner, const Served& served, Body&& body) {
  Scraper scraper(*served.server, runner.spans());
  body();
  scraper.stop();
  RunData& data = runner.data();
  data.export_us = std::move(scraper.export_us);
  data.export_bytes = std::move(scraper.export_bytes);
  data.capacity_us = std::move(scraper.capacity_us);
}

/// The analyzer's proven interactive bound for model `name`.
double proven_bound_us(const serve::ModelServer& server,
                       const std::string& name, SpanRecorder& spans) {
  analysis::CapacityReport report;
  {
    const ScopedSpan span(spans, "capacity_report");
    report = server.capacity_report();
  }
  for (const analysis::Finding& f : report.findings) {
    if (f.proof == analysis::ProofKind::kInteractiveLatency &&
        f.model == name) {
      if (f.verdict != analysis::Verdict::kProven) {
        throw std::runtime_error("interactive bound for " + name +
                                 " not proven");
      }
      return f.worst_case_us;
    }
  }
  throw std::runtime_error("no interactive bound for " + name);
}

// ---- the three load generators ----------------------------------------------

/// Closed loop: one client keeps kCifarInFlight kBatch requests in flight,
/// cycling the pool. A request is due when its slot frees (the previous
/// get() returned), so latency runs from then to its own get() returning.
void drive_closed_loop(Runner& runner, const Served& served) {
  const std::vector<PhaseWindow> phases = runner.windows(now_ns());
  std::deque<Pending> inflight;
  std::size_t next_image = 0;
  const std::size_t pool = runner.workload().pool.size();
  with_scraper(runner, served, [&] {
    std::int64_t slot_open = now_ns();
    for (const PhaseWindow& window : phases) {
      runner.phase_boundary(served, window.phase);
      while (now_ns() < window.end_ns) {
        while (inflight.size() < kCifarInFlight) {
          inflight.push_back(runner.submit(served, 0, next_image++ % pool,
                                           window.phase, true, slot_open));
          slot_open = now_ns();
        }
        runner.complete(inflight.front(), kWait);
        inflight.pop_front();
        slot_open = now_ns();
      }
    }
    runner.phase_boundary(served, kPhases);
    for (Pending& p : inflight) runner.complete(p, kWait);
  });
}

bool ready(const Pending& p) {
  return p.future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

/// Open loop on the calling thread: one request to model 0 at each Poisson
/// arrival (`events_per_s`), timed from its due time. Between
/// arrivals the thread polls the outstanding requests, so each completion
/// is stamped when it happens without a second client thread. The thread
/// spins while requests are outstanding or the next arrival is within
/// kSpinNs — sleep_for overshoots by up to a few ms on a virtualized host —
/// and otherwise sleeps at most 1ms at a time. Only in those idle gaps does
/// it call `background` (may be null), which does one small step of other
/// work and returns true while it has more, so a slow background call never
/// delays a send or a completion stamp.
void drive_open_loop(Runner& runner, const Served& served,
                     double events_per_s,
                     const std::function<bool(Phase)>& background) {
  constexpr std::int64_t kSpinNs = 3'000'000;
  constexpr std::int64_t kMaxSleepNs = 1'000'000;
  util::Rng rng{runner.args().seed * 0x9E3779B97F4A7C15ULL + 1};
  const std::vector<PhaseWindow> phases = runner.windows(now_ns() + 5'000'000);
  const std::size_t pool = runner.workload().pool.size();
  std::vector<Pending> inflight;
  Phase phase = kWarmup;
  const auto run_until = [&](std::int64_t deadline_ns, bool drain) {
    for (;;) {
      const std::int64_t now = now_ns();
      for (std::size_t i = 0; i < inflight.size();) {
        if (ready(inflight[i])) {
          runner.complete(inflight[i], now);
          inflight[i] = std::move(inflight.back());
          inflight.pop_back();
        } else {
          ++i;
        }
      }
      const std::int64_t remaining = deadline_ns - now;
      if (remaining <= 0 && !(drain && !inflight.empty())) return;
      const bool idle = !drain && inflight.empty() && remaining > kSpinNs;
      const bool busy = idle && background && background(phase);
      if (idle && !busy) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min(remaining - kSpinNs, kMaxSleepNs)));
      }
    }
  };
  with_scraper(runner, served, [&] {
    for (const PhaseWindow& window : phases) {
      const auto count = static_cast<std::size_t>(std::llround(
          events_per_s *
          static_cast<double>(window.end_ns - window.begin_ns) / 1e9));
      const std::vector<std::int64_t> due =
          poisson_arrivals(rng, count, window.begin_ns, window.end_ns);
      run_until(window.begin_ns, false);
      phase = window.phase;
      runner.phase_boundary(served, window.phase);
      for (const std::int64_t t : due) {
        run_until(t, false);
        inflight.push_back(runner.submit(
            served, 0, static_cast<std::size_t>(rng.next_u64() % pool),
            window.phase, true, t));
      }
    }
    run_until(phases.back().end_ns, false);
    runner.phase_boundary(served, kPhases);
    run_until(0, true);
  });
}

/// Two tenants on one preemptible PU: tenant a (model 0) sends kInteractive
/// probes on a Poisson schedule at kProbeRate requests/s while tenant b
/// (model 1) keeps a standing kBatch backlog.
void drive_flood(Runner& runner, const Served& served) {
  runner.set_limit_us(proven_bound_us(*served.server, "a", runner.spans()));
  const std::size_t pool = runner.workload().pool.size();
  std::deque<Pending> backlog;
  std::size_t next_image = 0;
  // Resolves finished backlog requests and submits at most one more.
  const auto top_up = [&](Phase phase) {
    while (!backlog.empty() && ready(backlog.front())) {
      runner.complete(backlog.front(), now_ns());
      backlog.pop_front();
    }
    if (backlog.size() >= kFloodBacklog + kFloodMargin) return false;
    backlog.push_back(runner.submit(served, 1, next_image++ % pool, phase,
                                    false, now_ns()));
    return backlog.size() < kFloodBacklog + kFloodMargin;
  };
  drive_open_loop(runner, served, kProbeRate, top_up);
  for (Pending& p : backlog) runner.complete(p, kWait);
}


// ---- workloads --------------------------------------------------------------

serve::SubmitOptions submit_options(serve::Priority priority) {
  serve::SubmitOptions options;
  options.priority = priority;
  options.deadline_us = 0;  // limits are measured, never enforced
  return options;
}

/// Decodes every model's image (timed) and deploys it with `config_for`.
double decode_and_deploy(
    serve::ModelServer& server, const std::vector<ModelInput>& models,
    const std::function<serve::DeployConfig(std::size_t)>& config_for,
    SpanRecorder& spans, std::uint64_t parent) {
  double from_bytes_ms = 0.0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const std::int64_t start = now_ns();
    hw::QNetDesc desc;
    {
      const ScopedSpan span(spans, "qnet_from_bytes", parent);
      desc = hw::qnet_from_bytes(models[m].image);
    }
    from_bytes_ms += static_cast<double>(now_ns() - start) / 1e6;
    const ScopedSpan span(spans, "deploy", parent);
    server.deploy(models[m].name, {std::move(desc)}, config_for(m));
  }
  return from_bytes_ms;
}

serve::DeployConfig dedicated_config(const ModelInput& model,
                                     std::size_t max_batch,
                                     std::int64_t max_wait_us) {
  serve::DeployConfig config;
  config.in_c = model.c;
  config.in_h = model.h;
  config.in_w = model.w;
  config.workers = 2;
  config.max_batch = max_batch;
  config.max_wait_us = max_wait_us;
  return config;
}

Workload offline_cifar(std::uint64_t seed) {
  Workload w;
  w.drive = drive_closed_loop;
  w.closed_loop = true;
  w.pool = make_pool(seed, kCifarPool, 3, 32, 32);
  w.models.push_back(
      make_model("cifar", "cifar", make_cifar_qnet(), 3, 32, 32, w.pool));
  w.options = {submit_options(serve::Priority::kBatch)};
  w.deploy = [](serve::ModelServer& server,
                std::shared_ptr<serve::SharedDevice>&,
                const std::vector<ModelInput>& models, SpanRecorder& spans,
                std::uint64_t parent) {
    return decode_and_deploy(
        server, models,
        [&](std::size_t) {
          return dedicated_config(models[0], 16,
                                  serve::DeployConfig{}.max_wait_us);
        },
        spans, parent);
  };
  return w;
}

Workload interactive_mlp(std::uint64_t seed) {
  Workload w;
  w.drive = [](Runner& runner, const Served& served) {
    drive_open_loop(runner, served, kMlpRate, nullptr);
  };
  w.pool = make_pool(seed, kMlpPool, 3, 16, 16);
  w.models.push_back(
      make_model("mlp", "mlp", make_mlp_qnet(95), 3, 16, 16, w.pool));
  w.options = {submit_options(serve::Priority::kInteractive)};
  w.limit_us = kMlpLimitUs;
  w.deploy = [](serve::ModelServer& server,
                std::shared_ptr<serve::SharedDevice>&,
                const std::vector<ModelInput>& models, SpanRecorder& spans,
                std::uint64_t parent) {
    return decode_and_deploy(
        server, models,
        [&](std::size_t) { return dedicated_config(models[0], 8, 200); }, spans,
        parent);
  };
  return w;
}

/// Accelerator clock scaled so one MLP sample costs kPuSampleUs modeled.
hw::AcceleratorConfig pu_accel(const hw::QNetDesc& desc) {
  hw::AcceleratorConfig accel;
  serve::ModelServer probe;
  serve::DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  probe.deploy("probe", {desc}, config);
  const double native_us = probe.engine("probe")->simulated_sample_us();
  probe.shutdown();
  accel.clock_hz *= native_us / kPuSampleUs;
  return accel;
}

Workload shared_pu_flood(std::uint64_t seed) {
  Workload w;
  w.drive = drive_flood;
  w.pool = make_pool(seed, kFloodPool, 3, 16, 16);
  const hw::QNetDesc a = make_mlp_qnet(95);
  w.models.push_back(make_model("a", "mlp", a, 3, 16, 16, w.pool));
  w.models.push_back(
      make_model("b", "mlp_b", make_mlp_qnet(96), 3, 16, 16, w.pool));
  w.options = {submit_options(serve::Priority::kInteractive),
               submit_options(serve::Priority::kBatch)};
  const hw::AcceleratorConfig accel = pu_accel(a);
  w.deploy = [accel](serve::ModelServer& server,
                     std::shared_ptr<serve::SharedDevice>& pu,
                     const std::vector<ModelInput>& models,
                     SpanRecorder& spans, std::uint64_t parent) {
    serve::SharedDeviceConfig pu_config;
    pu_config.max_pass_samples = kPuMaxPassSamples;
    pu_config.cobatch = true;
    pu_config.paced = true;
    pu_config.model_switch_us = kPuSwitchUs;
    pu_config.coalesce_window_us = static_cast<std::int64_t>(500 * kPuScale);
    pu_config.preempt_granularity_us = kPuGranularityUs;
    serve::DeviceSpec spec;
    spec.name = "shared-pu-preempt";
    pu = serve::SharedDevice::create(spec, pu_config);
    const auto config_for = [&](std::size_t m) {
      serve::DeployConfig config;
      config.in_c = 3;
      config.in_h = config.in_w = 16;
      config.workers = 4;
      config.max_batch = 4;
      config.max_wait_us = static_cast<std::int64_t>(200 * kPuScale);
      config.queue_capacity = 8192;
      config.placement = {serve::DeviceSpec::on(pu)};
      config.accel = accel;
      if (m == 0) {
        config.envelope.arrival_rps = kProbeRate;
        config.envelope.interactive_fraction = 1.0;
        config.envelope.interactive_burst = kEnvelopeBurst;
        config.envelope.interactive_deadline_us = 20000 * kPuScale;
      } else {
        config.envelope.arrival_rps = 100;
        config.envelope.interactive_fraction = 0.0;
      }
      return config;
    };
    return decode_and_deploy(server, models, config_for, spans, parent);
  };
  return w;
}

// ---- single-threaded direct calls (traced run) ------------------------------

struct DirectCalls {
  double compile_ms = 0.0, analyze_ms = 0.0;
  double compiled_sps = 0.0, reference_sps = 0.0;
  std::map<std::string, hw::LayerProfile> profiles;  ///< by model tag
};

template <typename Fn>
double median_ms(std::size_t repeats, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::int64_t start = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  return median(ms);
}

hw::LayerProfile profile_plan(const hw::QNetDesc& desc, std::size_t c,
                              std::size_t h, std::size_t w,
                              const Tensor& batch, SpanRecorder& spans,
                              double* sps) {
  const auto plan = compile::compile_qnet(desc, c, h, w);
  hw::LayerProfiler profiler(desc, c, h, w, hw::AcceleratorConfig{});
  hw::ExecScratch scratch;
  const double ms = median_ms(3, [&] {
    const ScopedSpan span(spans, "run_plan_batch");
    (void)compile::run_plan_batch(*plan, batch, scratch, &profiler);
  });
  if (sps != nullptr) {
    *sps = static_cast<double>(batch.shape().n()) / (ms / 1e3);
  }
  return profiler.snapshot();
}

Tensor stack(const std::vector<Tensor>& pool, std::size_t count) {
  const Shape& one = pool.front().shape();
  Tensor batch{Shape{count, one[1], one[2], one[3]}};
  const std::size_t per = pool.front().size();
  for (std::size_t i = 0; i < count; ++i) {
    const Tensor& src = pool[i % pool.size()];
    std::copy(src.data().begin(), src.data().end(),
              batch.data().begin() + static_cast<std::ptrdiff_t>(i * per));
  }
  return batch;
}

DirectCalls direct_calls(std::uint64_t seed, SpanRecorder& spans) {
  DirectCalls out;
  const hw::QNetDesc cifar = make_cifar_qnet();
  const std::vector<Tensor> cifar_pool = make_pool(seed, 16, 3, 32, 32);
  out.compile_ms = median_ms(3, [&] {
    const ScopedSpan span(spans, "compile_qnet");
    (void)compile::compile_qnet(cifar, 3, 32, 32);
  });
  const auto plan = compile::compile_qnet(cifar, 3, 32, 32);
  out.analyze_ms = median_ms(3, [&] {
    const ScopedSpan span(spans, "analyze_plan");
    (void)analysis::analyze_plan(*plan);
  });
  out.profiles["cifar"] = profile_plan(cifar, 3, 32, 32, stack(cifar_pool, 16),
                                       spans, &out.compiled_sps);
  const hw::AcceleratorExecutor reference(cifar);
  const Tensor few = stack(cifar_pool, 2);
  const double run_ms = median_ms(3, [&] {
    const ScopedSpan span(spans, "executor_run");
    (void)reference.run(few);
  });
  out.reference_sps = 2.0 / (run_ms / 1e3);
  const std::vector<Tensor> mlp_pool = make_pool(seed, 64, 3, 16, 16);
  out.profiles["mlp"] = profile_plan(make_mlp_qnet(95), 3, 16, 16,
                                     stack(mlp_pool, 64), spans, nullptr);
  return out;
}

// ---- metrics ----------------------------------------------------------------

std::string metric_safe(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    const bool ok = std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
                    ch == '_' || ch == '.' || ch == '-';
    if (!ok) ch = '_';
  }
  return out;
}

/// Per-row host ns/sample of the delta between two profile snapshots.
void add_kernel_rows(Report& report, const std::string& tag,
                     const hw::LayerProfile& end,
                     const hw::LayerProfile* begin) {
  const std::uint64_t samples = end.samples - (begin ? begin->samples : 0);
  for (std::size_t i = 0; i < end.rows.size(); ++i) {
    const std::uint64_t ns =
        end.rows[i].host_ns_total - (begin ? begin->rows[i].host_ns_total : 0);
    report.add("hw.kernel." + tag + "." + metric_safe(end.rows[i].name) +
                   ".host_ns_per_sample",
               samples > 0 ? static_cast<double>(ns) /
                                 static_cast<double>(samples)
                           : 0.0,
               "ns");
  }
}

/// Primary figure a window is judged by for the tracing overhead:
/// throughput for the closed loop, median client latency otherwise.
double primary(const Runner& runner, const RunData& data, Phase phase,
               const PhaseRecord& record) {
  if (runner.workload().closed_loop) {
    const Snapshot& a = data.at[phase];
    const Snapshot& b = data.at[phase + 1 < kPhases ? phase + 1 : kPhases];
    return static_cast<double>(b.completed - a.completed) /
           (static_cast<double>(b.at_ns - a.at_ns) / 1e9);
  }
  return percentile(record.client_us, 0.5).value;
}

void report_end_to_end(Report& report, const RunData& data,
                       const PhaseRecord& measured) {
  const Snapshot& begin = data.at[kMeasured];
  const Snapshot& end = data.at[kPhases];
  const double window_s = static_cast<double>(end.at_ns - begin.at_ns) / 1e9;
  report.add("throughput_sps",
             static_cast<double>(end.completed - begin.completed) / window_s,
             "1/s");
  std::size_t groups = 1;
  const Percentile p50 = grouped_percentile(measured.client_us, 0.50, &groups);
  const Percentile p99 = grouped_percentile(measured.client_us, 0.99, &groups);
  report.add("latency_p50_us", p50, "us", groups);
  report.add("latency_p99_us", p99, "us", groups);
  report.add("slo_attainment", grouped_share(measured.met), "ratio",
             data.limit_us > 0.0
                 ? "limit " + std::to_string(data.limit_us) + " us"
                 : "no limit: share returned kOk");
  report.add("setup_s", median(data.setup_s), "s",
             "median of " + std::to_string(data.setup_s.size()));
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_per_layer(Report& report, Runner& runner, const RunData& data,
                      const PhaseRecord& measured, const PhaseRecord& base,
                      const DirectCalls& direct) {
  report.add("serve.submit_us_p50", percentile(measured.submit_us, 0.50), "us");
  report.add("serve.submit_us_p99", percentile(measured.submit_us, 0.99), "us");
  report.add("serve.queue_wait_us_p50", percentile(measured.queue_us, 0.50),
             "us");
  report.add("serve.queue_wait_us_p99", percentile(measured.queue_us, 0.99),
             "us");
  report.add("serve.service_us_p50", percentile(measured.service_us, 0.50),
             "us");
  report.add("serve.service_us_p99", percentile(measured.service_us, 0.99),
             "us");
  report.add("serve.client_overhead_us_p50",
             percentile(measured.overhead_us, 0.50), "us");
  report.add("serve.batch_size_mean", data.batch_size_mean, "count");
  report.add("serve.shed", static_cast<double>(data.stats.shedded), "count");
  report.add("serve.timed_out", static_cast<double>(data.stats.timed_out),
             "count");
  report.add("serve.rejected", static_cast<double>(data.stats.rejected),
             "count");

  const Snapshot& begin = data.at[kMeasured];
  const Snapshot& end = data.at[kPhases];
  serve::SharedDeviceSnapshot pu_begin, pu_end;
  if (begin.pu && end.pu) {
    pu_begin = *begin.pu;
    pu_end = *end.pu;
  }
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto samples = [](const serve::SharedDeviceSnapshot& s) {
    std::uint64_t total = 0;
    for (const auto& tenant : s.tenants) total += tenant.samples;
    return total;
  };
  const double passes = delta(pu_begin.passes, pu_end.passes);
  const double busy_us = pu_end.busy_us - pu_begin.busy_us;
  const double window_us = static_cast<double>(end.at_ns - begin.at_ns) / 1e3;
  report.add("pu.passes", passes, "count");
  report.add("pu.chunks", delta(pu_begin.chunks, pu_end.chunks), "count");
  report.add("pu.preemptions", delta(pu_begin.preemptions, pu_end.preemptions),
             "count");
  report.add("pu.joined_jobs", delta(pu_begin.joined_jobs, pu_end.joined_jobs),
             "count");
  report.add("pu.model_switches",
             delta(pu_begin.model_switches, pu_end.model_switches), "count");
  report.add("pu.samples_per_pass",
             passes > 0 ? delta(samples(pu_begin), samples(pu_end)) / passes
                        : 0.0,
             "count");
  report.add("pu.switch_share",
             busy_us > 0 ? (pu_end.switch_us - pu_begin.switch_us) / busy_us
                         : 0.0,
             "ratio");
  report.add("pu.utilization", end.pu ? busy_us / window_us : 0.0, "ratio");

  // Kernel rows: the served model's profile over the traced window; models
  // not served by this workload come from the direct single-threaded calls.
  for (const char* tag : {"cifar", "mlp"}) {
    const auto& models = runner.workload().models;
    const auto served = std::find_if(
        models.begin(), models.end(),
        [&](const ModelInput& m) { return m.tag == tag; });
    if (served != models.end()) {
      const auto index = static_cast<std::size_t>(served - models.begin());
      add_kernel_rows(report, tag, end.profiles[index],
                      &begin.profiles[index]);
    } else {
      add_kernel_rows(report, tag, direct.profiles.at(tag), nullptr);
    }
  }
  report.add("hw.modeled_us_per_sample", data.modeled_us_per_sample, "us");
  report.add("hw.modeled_dma_bytes_per_sample",
             data.modeled_dma_bytes_per_sample, "B");
  report.add("hw.compiled_sps_1core", direct.compiled_sps, "1/s");
  report.add("hw.reference_sps_1core", direct.reference_sps, "1/s");
  report.add("hw.qnet_from_bytes_ms", median(data.from_bytes_ms), "ms");
  report.add("compile.compile_qnet_ms", direct.compile_ms, "ms");
  report.add("compile.plan_cache_hit_ratio", data.plan_cache_hit_ratio,
             "ratio");
  report.add("analysis.analyze_plan_ms", direct.analyze_ms, "ms");
  report.add("analysis.capacity_report_us", median(data.capacity_us), "us");
  report.add("analysis.slo_headroom_us",
             data.limit_us > 0.0
                 ? data.limit_us - percentile(measured.client_us, 0.99).value
                 : 0.0,
             "us");
  report.add("obs.export_metrics_us", median(data.export_us), "us");
  report.add("obs.export_metrics_bytes", median(data.export_bytes), "B");
  report.add("loadgen.lag_p99_us", percentile(measured.lag_us, 0.99), "us");
  report.add("loadgen.sent", static_cast<double>(measured.sent), "count");
  report.add("loadgen.completed", static_cast<double>(measured.ok), "count");

  const double traced = primary(runner, data, kMeasured, measured);
  const double untraced = primary(runner, data, kBase, base);
  const bool throughput = runner.workload().closed_loop;
  report.add("trace.overhead_pct",
             untraced > 0 && traced > 0
                 ? 100.0 * (throughput ? untraced / traced : traced / untraced) -
                       100.0
                 : 0.0,
             "%",
             throughput ? "throughput, untraced vs traced window"
                        : "latency p50, traced vs untraced window");
  report.add("trace.spans", static_cast<double>(runner.spans().size()),
             "count");
}

int run(const Args& args) {
  const std::map<std::string, Workload (*)(std::uint64_t)> workloads = {
      {"offline_cifar", offline_cifar},
      {"interactive_mlp", interactive_mlp},
      {"shared_pu_flood", shared_pu_flood}};
  const auto make = workloads.find(args.workload);
  if (make == workloads.end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Workload workload = make->second(args.seed);
  Runner runner(args, workload);
  runner.spans().set_enabled(args.trace);
  Served served = runner.set_up();
  RunData& data = runner.data();
  workload.drive(runner, served);
  runner.finish(served);
  served.server.reset();
  served.pu.reset();

  std::printf("workload %s seed %llu seconds %.3f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (std::size_t p = 0; p < kPhases; ++p) {
    if (!data.has_phase[p]) continue;
    const PhaseRecord r = runner.tracker().phase(static_cast<Phase>(p));
    std::printf("phase %-8s sent %8llu succeeded %8llu failed %4llu "
                "mismatched %4llu\n",
                kPhaseNames[p], static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.mismatched));
  }

  const PhaseRecord measured = runner.tracker().phase(kMeasured);
  std::printf("latency distribution (measured, n=%zu):",
              measured.client_us.size());
  for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1.0}) {
    std::printf(" p%g=%.1f", q * 100, percentile(measured.client_us, q).value);
  }
  std::printf(" us\n");
  Report report;
  if (args.trace) {
    const DirectCalls direct = direct_calls(args.seed, runner.spans());
    report_per_layer(report, runner, data, measured,
                     runner.tracker().phase(kBase), direct);
    for (const auto& [name, totals] : runner.spans().totals()) {
      std::printf("span %-16s count %8llu total %12.3f ms self %12.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total_ms, totals.self_ms);
    }
    if (!runner.spans().write_chrome_json(args.trace_out)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
    std::printf("wrote %s (%zu spans, %llu dropped)\n", args.trace_out.c_str(),
                runner.spans().size(),
                static_cast<unsigned long long>(runner.spans().dropped()));
  } else {
    report_end_to_end(report, data, measured);
  }
  const std::uint64_t failed = measured.failed + measured.mismatched;
  std::printf("error_rate %.6f (%llu of %llu attempted)\n",
              measured.sent > 0 ? static_cast<double>(failed) /
                                      static_cast<double>(measured.sent)
                                : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(measured.sent));
  const std::uint64_t mismatched = runner.tracker().mismatched_total();
  report.print(mismatched == 0, measured.sent, failed);
  if (mismatched > 0) {
    std::fprintf(stderr, "error: %llu responses differ from run()\n",
                 static_cast<unsigned long long>(mismatched));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
