// Deterministic scheduler-test harness for SharedDevice suites.
//
// Preemption and continuous batching are interleaving-heavy: a test that
// sleeps wall-clock and hopes the probe lands mid-pass is flaky by
// construction. This header gives tests the three seams
// SharedDeviceConfig exposes instead:
//
//   VirtualClock  — a monotone microsecond clock the device paces against.
//                   Pacing "sleeps" advance the clock instantly, so a paced
//                   schedule replays in virtual time: same submissions in,
//                   same modeled timeline out, at memory speed.
//   ChunkGate     — parks the dispatch thread at every chunk boundary (the
//                   chunk_hook seam, called outside the device mutex) until
//                   the test releases it. Tests single-step the chunk loop:
//                   hold the boundary, inject a probe or a joiner, release,
//                   observe the event stream. open_on_exit() opens the
//                   gate when a failed ASSERT unwinds the test, so a parked
//                   dispatcher cannot hang the server shutdown.
//   await_device_lane — waits until a model's sub-batches are queued on
//                   the device, so a parked dispatcher's next plan sees them.
//   make_preempt_qnet / preempt_image — the same tiny quantized MLP zoo
//                   entries the shared-device suite uses (seeded, so
//                   schedules replay from a seed).
//   parked        — a deploy config whose engine workers hold their batches
//                   open, so submissions stay outstanding and countable.
//
// Used by the serving suites (test_preemption, test_shared_device,
// test_serve, test_server, test_device, test_replicas, test_capacity); any
// future SharedDevice scheduling test should build on these seams rather
// than wall-clock sleeps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <thread>

#include "nn/zoo.hpp"
#include "serve/engine.hpp"
#include "serve/shared_device.hpp"
#include "util/mutex.hpp"

namespace mfdfp::serve::testing {

/// `config` with its engine workers parked in batch formation: each worker
/// claims one request and then holds the batch open for `max_wait_us`
/// (max_batch 256 never fills), so submissions stay outstanding — routing,
/// gauges, admission and drains become observable instead of racing the
/// workers — until the hold ends or the engine stops. An engine holds a
/// batch open only for min(max_wait_us, its backend's batch_fixed_us()),
/// and a dedicated device has no fixed per-batch cost. So every replica
/// (`config.device` when the placement is empty) moves onto its own
/// unpaced one-tenant SharedDevice whose weight reload costs
/// 2 x max_wait_us. The device takes the entry's name and speed_factor, so
/// per-sample costs and normalized routing stay those of the entry, and
/// the entry keeps its scheduling overrides. A lone engine attaches with
/// `config.device.shared->attach(members, config)`.
inline DeployConfig parked(DeployConfig config,
                           std::int64_t max_wait_us = 300'000) {
  config.max_batch = 256;
  config.max_wait_us = max_wait_us;
  const auto park = [max_wait_us](DeviceSpec& entry) {
    DeviceSpec spec;
    spec.name = entry.name;
    spec.speed_factor = entry.speed_factor;
    SharedDeviceConfig pu;
    pu.paced = false;
    pu.coalesce_window_us = 0;
    pu.model_switch_us = 2.0 * static_cast<double>(max_wait_us);
    entry.shared = SharedDevice::create(std::move(spec), std::move(pu));
  };
  if (config.placement.empty()) {
    park(config.device);
  } else {
    for (DeviceSpec& entry : config.placement) park(entry);
  }
  return config;
}

/// Seeded tiny quantized MLP (3 x dim x dim in, 5 classes) — one cheap,
/// bit-reproducible tenant model per seed. Distinct `hw_dim`s give
/// geometry-incompatible tenants (the can't-join, must-preempt case).
inline hw::QNetDesc make_preempt_qnet(std::uint64_t seed,
                                      std::size_t hw_dim = 16) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = hw_dim;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  tensor::Tensor calibration{tensor::Shape{6, 3, hw_dim, hw_dim}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

inline tensor::Tensor preempt_image(util::Rng& rng, std::size_t hw_dim = 16) {
  tensor::Tensor image{tensor::Shape{1, 3, hw_dim, hw_dim}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

/// Waits (up to 20 s) until `model` has at least `jobs` sub-batches queued
/// in its device lanes — with the dispatcher parked, the next pass or chunk
/// plan sees them.
inline bool await_device_lane(const SharedDevice& pu,
                              const std::string& model,
                              std::size_t jobs = 1) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const SharedTenantRow& row : pu.snapshot().tenants) {
      if (row.model == model && row.queued_jobs >= jobs) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Virtual microsecond clock for the SharedDeviceConfig::now_us/sleep_us
/// seams: monotone, advanced by pacing sleeps (instantly) and by tests.
/// Safe from any thread. The clock outlives the device it is bound to —
/// bind() captures `this`.
class VirtualClock {
 public:
  [[nodiscard]] std::int64_t now() const noexcept {
    return now_us_.load(std::memory_order_relaxed);
  }

  void advance(std::int64_t us) noexcept {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }

  /// Wires this clock into a device config: the dispatcher reads virtual
  /// time and its pacing sleeps become instant clock advances, so
  /// `paced = true` schedules replay deterministically with no wall delay.
  void bind(SharedDeviceConfig& config) {
    config.now_us = [this] { return now(); };
    config.sleep_us = [this](std::int64_t us) { advance(us); };
  }

 private:
  std::atomic<std::int64_t> now_us_{0};
};

/// Parks the dispatch thread at chunk boundaries. Protocol:
///   gate.bind(config);            // before SharedDevice::create
///   auto e = gate.next();         // wait for a boundary (dispatcher parked)
///   ... inject probes/joiners ... // dispatcher cannot plan the next chunk
///   gate.release();               // let exactly one chunk boundary pass
///   gate.open();                  // stop gating (always before shutdown)
class ChunkGate {
 public:
  ~ChunkGate() { open(); }

  /// Opens the gate when the returned guard is destroyed. The gate must
  /// outlive the device, so declare the guard after the ModelServer
  /// instead: a failed ASSERT then opens the gate before the server
  /// drains, and a dispatcher parked in the hook cannot hang the shutdown.
  [[nodiscard]] auto open_on_exit() {
    struct Guard {
      ChunkGate* gate;
      ~Guard() { gate->open(); }
    };
    return Guard{this};
  }

  void bind(SharedDeviceConfig& config) {
    config.chunk_hook = [this](const SharedDeviceChunkEvent& event) {
      on_chunk(event);
    };
  }

  /// Blocks until the dispatcher reaches a chunk boundary and returns its
  /// event. The dispatcher stays parked in the hook until release()/open().
  [[nodiscard]] SharedDeviceChunkEvent next() {
    util::MutexLock lock(mutex_);
    arrived_.wait(mutex_, [this]() REQUIRES(mutex_) {
      return !events_.empty();
    });
    SharedDeviceChunkEvent event = events_.front();
    events_.pop_front();
    return event;
  }

  /// next() with a deadline, so test loops stay hang-proof: returns
  /// std::nullopt if no boundary arrives within `timeout` (e.g. the
  /// device drained and there is nothing left to gate).
  [[nodiscard]] std::optional<SharedDeviceChunkEvent> next_for(
      std::chrono::milliseconds timeout) {
    util::MutexLock lock(mutex_);
    if (!arrived_.wait_for(mutex_, timeout, [this]() REQUIRES(mutex_) {
          return !events_.empty();
        })) {
      return std::nullopt;
    }
    SharedDeviceChunkEvent event = events_.front();
    events_.pop_front();
    return event;
  }

  /// Grants `n` boundary permits: the parked dispatcher (and the next n-1
  /// boundaries) proceed without further holds.
  void release(std::size_t n = 1) {
    {
      util::MutexLock lock(mutex_);
      permits_ += n;
    }
    released_.notify_all();
  }

  /// Stops gating permanently: the parked dispatcher and every later
  /// boundary proceed immediately. Call before server shutdown — a gated
  /// dispatcher cannot drain.
  void open() {
    {
      util::MutexLock lock(mutex_);
      open_ = true;
    }
    released_.notify_all();
  }

 private:
  void on_chunk(const SharedDeviceChunkEvent& event) {
    util::MutexLock lock(mutex_);
    events_.push_back(event);
    arrived_.notify_all();
    released_.wait(mutex_, [this]() REQUIRES(mutex_) {
      return open_ || permits_ > 0;
    });
    if (!open_) --permits_;
  }

  util::Mutex mutex_;
  util::CondVar arrived_;
  util::CondVar released_;
  std::deque<SharedDeviceChunkEvent> events_ GUARDED_BY(mutex_);
  std::size_t permits_ GUARDED_BY(mutex_) = 0;
  bool open_ GUARDED_BY(mutex_) = false;
};

}  // namespace mfdfp::serve::testing
