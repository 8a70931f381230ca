// Serving-engine properties: batch-formation bounds, FIFO fairness under
// producer contention, priority-lane draining, clean worker shutdown,
// typed status codes on every failure path, and the load-bearing invariant
// that served logits are bit-identical to per-sample run().
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "core/ensemble.hpp"
#include "nn/zoo.hpp"
#include "serve/request_queue.hpp"
#include "util/stopwatch.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

Request make_request(RequestId id, std::int64_t deadline_us = 0,
                     Priority priority = Priority::kInteractive) {
  Request request;
  request.id = id;
  request.priority = priority;
  request.enqueue_us = util::Stopwatch::now_us();
  request.deadline_us = deadline_us;
  return request;
}

/// Builds a small quantized deployment image the way the executor tests do.
hw::QNetDesc make_test_qnet(std::uint64_t seed, bool conv_net) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = conv_net ? nn::make_cifar10_net(config, rng)
                             : nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

DeployConfig small_deploy_config() {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.max_batch = 5;
  config.max_wait_us = 2000;
  config.workers = 2;
  return config;
}

// ---- batch formation (RequestQueue::pop_batch) ----------------------------

TEST(RequestQueue, PopBatchNeverExceedsMaxBatch) {
  RequestQueue queue(256);
  for (RequestId id = 0; id < 11; ++id) {
    ASSERT_TRUE(queue.push(make_request(id)));
  }
  queue.close();

  std::vector<Request> batch;
  std::vector<std::size_t> batch_sizes;
  RequestId next_expected = 0;
  while (queue.pop_batch(batch, 4, 0)) {
    EXPECT_LE(batch.size(), 4u);
    for (const Request& request : batch) {
      EXPECT_EQ(request.id, next_expected++) << "dequeue must be FIFO";
    }
    batch_sizes.push_back(batch.size());
  }
  EXPECT_EQ(next_expected, 11u);
  // A full backlog coalesces into full batches: 4+4+3.
  ASSERT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(batch_sizes[0], 4u);
  EXPECT_EQ(batch_sizes[1], 4u);
  EXPECT_EQ(batch_sizes[2], 3u);
}

TEST(RequestQueue, PopBatchReleasesLoneRequestAfterMaxWait) {
  RequestQueue queue(16);
  ASSERT_TRUE(queue.push(make_request(1)));

  util::Stopwatch watch;
  std::vector<Request> batch;
  ASSERT_TRUE(queue.pop_batch(batch, 8, 20'000));
  // The lone request must not wait for a full batch forever — it is
  // released within max_wait (plus generous scheduling slack).
  EXPECT_LT(watch.micros(), 2'000'000);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, 1u);
  queue.close();
}

// The timed wait that closes a lone request's batch may wake late (host
// load), never early: only the lower bound is checked, so this cannot
// flake, and it pins the close time at enqueue_us + max_wait_us.
TEST(RequestQueue, PopBatchNeverClosesBeforeMaxWait) {
  RequestQueue queue(16);
  ASSERT_TRUE(queue.push(make_request(1)));

  std::vector<Request> batch;
  ASSERT_TRUE(queue.pop_batch(batch, 8, 2000));
  const std::int64_t returned_us = util::Stopwatch::now_us();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GE(returned_us, batch.front().enqueue_us + 2000);
  queue.close();
}

// Two idle callers must split two requests, not let the first coalesce
// both: each claims its first request before waiting for more. Both callers
// then sit in a minute-long coalescing wait, so only close() releases them,
// and by then the queue is empty.
TEST(RequestQueue, PopBatchClaimsFirstRequestBeforeCoalescing) {
  RequestQueue queue(16);
  ASSERT_TRUE(queue.push(make_request(1)));
  ASSERT_TRUE(queue.push(make_request(2)));

  std::array<std::vector<Request>, 2> batches;
  std::array<bool, 2> popped{};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      popped[c] = queue.pop_batch(batches[c], 8, 60'000'000);
    });
  }
  while (queue.size() != 0) std::this_thread::yield();
  queue.close();
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(popped[c]);
    ASSERT_EQ(batches[c].size(), 1u) << "caller " << c;
  }
  EXPECT_NE(batches[0].front().id, batches[1].front().id);
}

// ---- queue fairness --------------------------------------------------------

TEST(RequestQueue, PerProducerFifoUnderContention) {
  RequestQueue queue(4096);
  constexpr std::size_t kProducers = 4;
  constexpr RequestId kPerProducer = 200;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (RequestId i = 0; i < kPerProducer; ++i) {
        // id encodes (producer, sequence).
        ASSERT_TRUE(queue.push(make_request(p * 1'000'000 + i)));
      }
    });
  }
  for (std::thread& thread : producers) thread.join();
  queue.close();

  std::vector<RequestId> next_seq(kProducers, 0);
  std::vector<Request> popped;
  std::size_t total = 0;
  while (queue.pop_batch(popped, 1, 0)) {
    ASSERT_EQ(popped.size(), 1u);
    const std::size_t producer = popped.front().id / 1'000'000;
    const RequestId seq = popped.front().id % 1'000'000;
    EXPECT_EQ(seq, next_seq[producer])
        << "per-producer order violated for producer " << producer;
    ++next_seq[producer];
    ++total;
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(RequestQueue, RejectsWhenFullOrClosed) {
  RequestQueue queue(2);
  EXPECT_TRUE(queue.push(make_request(1)));
  EXPECT_TRUE(queue.push(make_request(2)));
  EXPECT_FALSE(queue.push(make_request(3)));  // full
  queue.close();
  EXPECT_FALSE(queue.push(make_request(4)));  // closed
  // Drain still works after close.
  std::vector<Request> out;
  EXPECT_TRUE(queue.pop_batch(out, 1, 0));
  EXPECT_TRUE(queue.pop_batch(out, 1, 0));
  EXPECT_FALSE(queue.pop_batch(out, 1, 0));
}

// ---- queue edge cases ------------------------------------------------------

TEST(RequestQueue, PushAtCapacityLeavesPromiseUsable) {
  RequestQueue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));

  // The rejected request must come back intact: the caller still owns the
  // promise and can resolve the client's future with a typed failure.
  Request rejected = make_request(2);
  std::future<Response> future = rejected.promise.get_future();
  ASSERT_FALSE(queue.push(std::move(rejected)));
  fail_request(rejected, StatusCode::kQueueFull, "queue at capacity");
  const Response response = future.get();
  EXPECT_EQ(response.status, StatusCode::kQueueFull);
  queue.close();
}

TEST(RequestQueue, PopBatchWakesOnClose) {
  RequestQueue queue(16);
  ASSERT_TRUE(queue.push(make_request(1)));
  std::atomic<bool> woke{false};
  std::vector<Request> batch;
  std::thread waiter([&] {
    // Asks for more requests than will ever arrive; only close() can end
    // the (minute-long) coalescing wait, and the claimed request still
    // comes out.
    EXPECT_TRUE(queue.pop_batch(batch, 8, 60'000'000));
    woke.store(true);
  });
  // Give the waiter a moment to block, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  queue.close();
  waiter.join();
  EXPECT_TRUE(woke.load());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, 1u);
  EXPECT_FALSE(queue.pop_batch(batch, 8, 60'000'000)) << "closed and drained";
  EXPECT_TRUE(batch.empty());
}

TEST(RequestQueue, FifoPreservedAcrossPartialBatches) {
  RequestQueue queue(16);
  for (RequestId id = 0; id < 7; ++id) {
    ASSERT_TRUE(queue.push(make_request(id)));
  }
  std::vector<RequestId> popped;
  std::vector<Request> batch;
  for (const std::size_t max_batch : {3u, 2u, 5u}) {
    ASSERT_TRUE(queue.pop_batch(batch, max_batch, 0));
    // 3, 2, then the 2 that remain: a batch past its close time takes what
    // is pending instead of waiting.
    EXPECT_EQ(batch.size(), std::min<std::size_t>(max_batch, 7 - popped.size()));
    for (const Request& request : batch) popped.push_back(request.id);
  }
  ASSERT_EQ(popped.size(), 7u);
  for (RequestId id = 0; id < 7; ++id) {
    EXPECT_EQ(popped[id], id) << "FIFO broken across partial batches";
  }
  EXPECT_EQ(queue.size(), 0u);
  queue.close();
  EXPECT_FALSE(queue.pop_batch(batch, 1, 0));
}

// ---- priority lanes --------------------------------------------------------

TEST(RequestQueue, StrictPriorityDrainsInteractiveFirst) {
  RequestQueue queue(16, /*priority_aware=*/true);
  ASSERT_TRUE(queue.push(make_request(100, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(101, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(1, 0, Priority::kInteractive)));
  ASSERT_TRUE(queue.push(make_request(102, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(2, 0, Priority::kInteractive)));
  EXPECT_EQ(queue.size(), 5u);
  EXPECT_EQ(queue.size(Priority::kInteractive), 2u);
  EXPECT_EQ(queue.size(Priority::kBatch), 3u);

  // Interactive lane drains first (FIFO within it), then batch (FIFO).
  std::vector<Request> popped;
  ASSERT_TRUE(queue.pop_batch(popped, 3, 0));
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0].id, 1u);
  EXPECT_EQ(popped[1].id, 2u);
  EXPECT_EQ(popped[2].id, 100u);
  ASSERT_TRUE(queue.pop_batch(popped, 1, 0));
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped.front().id, 101u);
  ASSERT_TRUE(queue.pop_batch(popped, 1, 0));
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped.front().id, 102u);
  queue.close();
}

TEST(RequestQueue, BatchCannotUseInteractiveReservedHeadroom) {
  RequestQueue queue(16, /*priority_aware=*/true);
  EXPECT_EQ(queue.interactive_reserve(), 2u);  // capacity / 8
  // A deadline-less batch flood stops at capacity - reserve...
  for (RequestId id = 0; id < 14; ++id) {
    ASSERT_TRUE(queue.push(make_request(id, 0, Priority::kBatch)));
  }
  EXPECT_FALSE(queue.push(make_request(99, 0, Priority::kBatch)));
  // ...while interactive traffic still gets the reserved slots.
  EXPECT_TRUE(queue.push(make_request(1000, 0, Priority::kInteractive)));
  EXPECT_TRUE(queue.push(make_request(1001, 0, Priority::kInteractive)));
  EXPECT_FALSE(queue.push(make_request(1002, 0, Priority::kInteractive)));
  EXPECT_EQ(queue.size(), 16u);
  queue.close();
}

TEST(RequestQueue, SmallCapacityKeepsMinimumInteractiveReserve) {
  // Regression: capacity / 8 rounds to 0 below 8, which used to leave small
  // priority-aware queues with no interactive reserve at all — a kBatch
  // flood could occupy every slot and starve interactive traffic at the
  // door. The reserve now has an explicit floor of one slot.
  RequestQueue queue(4, /*priority_aware=*/true);
  EXPECT_EQ(queue.interactive_reserve(), 1u);
  for (RequestId id = 0; id < 3; ++id) {
    ASSERT_TRUE(queue.push(make_request(id, 0, Priority::kBatch)));
  }
  EXPECT_FALSE(queue.push(make_request(99, 0, Priority::kBatch)))
      << "batch must not take the last (reserved) slot";
  EXPECT_TRUE(queue.push(make_request(1000, 0, Priority::kInteractive)));
  EXPECT_EQ(queue.size(), 4u);
  queue.close();

  // Degenerate single-slot queue: reserving would leave kBatch no slot at
  // all, so the reserve stays 0 and the lone slot is first-come.
  RequestQueue tiny(1, /*priority_aware=*/true);
  EXPECT_EQ(tiny.interactive_reserve(), 0u);
  EXPECT_TRUE(tiny.push(make_request(0, 0, Priority::kBatch)));
  EXPECT_FALSE(tiny.push(make_request(1, 0, Priority::kInteractive)));
  tiny.close();

  // FIFO mode never reserves, whatever the capacity.
  RequestQueue fifo(4, /*priority_aware=*/false);
  EXPECT_EQ(fifo.interactive_reserve(), 0u);
  for (RequestId id = 0; id < 4; ++id) {
    ASSERT_TRUE(fifo.push(make_request(id, 0, Priority::kBatch)));
  }
  EXPECT_FALSE(fifo.push(make_request(99, 0, Priority::kInteractive)));
  fifo.close();
}

TEST(RequestQueue, FifoModeIgnoresPriority) {
  RequestQueue queue(16, /*priority_aware=*/false);
  ASSERT_TRUE(queue.push(make_request(100, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(1, 0, Priority::kInteractive)));
  std::vector<Request> out;
  ASSERT_TRUE(queue.pop_batch(out, 1, 0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().id, 100u) << "FIFO mode must not reorder by priority";
  queue.close();
}

/// Stub device for lifecycle tests: execute() holds every caller until the
/// gate opens. live_workers() counts the worker threads that have executed
/// a batch and not yet exited: a thread_local sentinel decrements it during
/// thread teardown, after the worker's drain loop has returned.
class GatedBackend final : public ExecutionBackend {
 public:
  [[nodiscard]] BatchResult execute(const Tensor& stacked, hw::ExecScratch&,
                                    const ExecHints&) const override {
    struct ExitSentinel {
      std::atomic<int>* live = nullptr;
      ~ExitSentinel() {
        if (live != nullptr) live->fetch_sub(1, std::memory_order_release);
      }
    };
    thread_local ExitSentinel sentinel;
    if (sentinel.live == nullptr) {
      live_.fetch_add(1, std::memory_order_relaxed);
      sentinel.live = &live_;
    }
    entered_.fetch_add(1, std::memory_order_release);
    while (!open_.load(std::memory_order_acquire)) std::this_thread::yield();
    BatchResult result;
    result.logits = Tensor{Shape{stacked.shape().n(), 2}};
    return result;
  }
  [[nodiscard]] double sample_us() const noexcept override { return 1.0; }
  [[nodiscard]] double batch_dma_bytes(std::size_t) const override {
    return 0.0;
  }
  [[nodiscard]] std::size_t member_count() const noexcept override {
    return 1;
  }

  void open() const { open_.store(true, std::memory_order_release); }
  /// Spins until `n` execute() calls have started.
  void await_entered(int n) const {
    while (entered_.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
  }
  [[nodiscard]] int live_workers() const {
    return live_.load(std::memory_order_acquire);
  }

 private:
  mutable std::atomic<bool> open_{false};
  mutable std::atomic<int> entered_{0};
  mutable std::atomic<int> live_{0};
};

// ---- engine ----------------------------------------------------------------

TEST(InferenceEngine, ResponsesMatchDirectExecution) {
  const hw::QNetDesc desc = make_test_qnet(41, true);
  const hw::AcceleratorExecutor reference(desc);
  InferenceEngine engine({desc}, small_deploy_config());

  util::Rng rng{42};
  Tensor images{Shape{16, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < images.shape().n(); ++i) {
    futures.push_back(engine.submit(tensor::slice_outer(images, i, i + 1)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    const Tensor expected =
        reference.run(tensor::slice_outer(images, i, i + 1));
    EXPECT_EQ(tensor::max_abs_diff(response.logits, expected), 0.0f)
        << "request " << i;
    EXPECT_EQ(response.predicted_class,
              static_cast<int>(expected.argmax()));
    EXPECT_GE(response.batch_size, 1u);
    EXPECT_LE(response.batch_size, engine.config().max_batch);
    EXPECT_GT(response.sim_accel_us, 0.0);
    EXPECT_GT(response.sim_dma_bytes, 0.0);
    EXPECT_GE(response.e2e_us, response.queue_wait_us);
  }

  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, (16u + 4u) / 5u);  // max_batch = 5
  EXPECT_GT(stats.sim_accel_busy_us, 0.0);
}

TEST(InferenceEngine, EnsembleAveragingMatchesRunEnsemble) {
  const hw::QNetDesc desc_a = make_test_qnet(51, false);
  const hw::QNetDesc desc_b = make_test_qnet(52, false);
  const hw::AcceleratorExecutor exec_a(desc_a), exec_b(desc_b);
  const std::vector<const hw::AcceleratorExecutor*> members{&exec_a, &exec_b};

  InferenceEngine engine({desc_a, desc_b}, small_deploy_config());
  EXPECT_EQ(engine.member_count(), 2u);

  util::Rng rng{53};
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);

  Response response = engine.submit(image).get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  const Tensor expected = hw::run_ensemble(members, image);
  EXPECT_EQ(tensor::max_abs_diff(response.logits, expected), 0.0f);
}

TEST(InferenceEngine, RejectsBadShapesWithInvalidInput) {
  const hw::QNetDesc desc = make_test_qnet(61, false);
  InferenceEngine engine({desc}, small_deploy_config());

  Tensor wrong{Shape{2, 3, 16, 16}};  // batch of 2 in one request
  Response response = engine.submit(std::move(wrong)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);
  EXPECT_NE(response.detail.find("bad input shape"), std::string::npos);

  Tensor wrong_size{Shape{3, 8, 8}};
  response = engine.submit(std::move(wrong_size)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);

  // Same element count, permuted layout: must be rejected, not served as
  // scrambled data.
  Tensor permuted{Shape{16, 3, 16}};
  response = engine.submit(std::move(permuted)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);

  Tensor rank2{Shape{3, 256}};
  response = engine.submit(std::move(rank2)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);

  EXPECT_EQ(engine.stats().snapshot().rejected, 4u);
}

TEST(InferenceEngine, ExpiredAtSubmitFailsImmediatelyAsTimedOut) {
  const hw::QNetDesc desc = make_test_qnet(62, false);
  DeployConfig config = small_deploy_config();
  // Park the workers in a long coalescing wait so a queued request would
  // sit for a while — the expired request must not reach the queue at all.
  config.max_batch = 64;
  config.max_wait_us = 500'000;
  InferenceEngine engine({desc}, config);

  util::Rng rng{63};
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);

  SubmitOptions expired_options;
  expired_options.deadline_us = util::Stopwatch::now_us() - 1;
  util::Stopwatch watch;
  const Response response =
      engine.submit(std::move(image), expired_options).get();
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  // Resolved at submit, not after the 500 ms coalescing wait.
  EXPECT_LT(watch.micros(), 400'000);
  EXPECT_EQ(engine.queue_depth(), 0u) << "expired request took a queue slot";

  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.timed_out, 1u) << "expiry at submit counts as timed_out";
  EXPECT_EQ(stats.rejected, 0u) << "expiry at submit is not a rejection";
}

TEST(InferenceEngine, StopDrainsPendingWorkWithoutDeadlock) {
  const hw::QNetDesc desc = make_test_qnet(71, false);
  DeployConfig config = small_deploy_config();
  // Park requests in the coalescing wait so stop() races batch formation.
  config.max_batch = 64;
  config.max_wait_us = 500'000;
  config.workers = 3;
  InferenceEngine engine({desc}, config);

  util::Rng rng{72};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    Tensor image{Shape{1, 3, 16, 16}};
    image.fill_uniform(rng, -1.0f, 1.0f);
    futures.push_back(engine.submit(std::move(image)));
  }
  engine.stop();  // must drain: every future resolves, no deadlock

  std::size_t completed = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (ok(response.status)) ++completed;
  }
  EXPECT_EQ(completed, 10u) << "drained shutdown must complete queued work";

  // Idempotent stop and post-stop rejection.
  engine.stop();
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  const Response rejected = engine.submit(std::move(image)).get();
  EXPECT_EQ(rejected.status, StatusCode::kShuttingDown);
}

TEST(InferenceEngine, FailsRequestsThatExpireWhileQueued) {
  auto backend = std::make_shared<GatedBackend>();
  DeployConfig config = small_deploy_config();
  config.workers = 1;
  config.max_batch = 4;
  config.max_wait_us = 0;
  InferenceEngine engine(backend, config);

  // Hold the only worker inside execute() while three requests queue
  // behind it, two of them with a deadline that passes meanwhile.
  std::future<Response> first = engine.submit(Tensor{Shape{3, 16, 16}});
  backend->await_entered(1);
  SubmitOptions expiring;
  expiring.deadline_us = util::Stopwatch::now_us() + 50'000;
  std::future<Response> expired_a =
      engine.submit(Tensor{Shape{3, 16, 16}}, expiring);
  std::future<Response> live = engine.submit(Tensor{Shape{3, 16, 16}});
  std::future<Response> expired_b =
      engine.submit(Tensor{Shape{3, 16, 16}}, expiring);
  while (util::Stopwatch::now_us() <= expiring.deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  backend->open();

  EXPECT_TRUE(ok(first.get().status));
  const Response served = live.get();
  ASSERT_TRUE(ok(served.status)) << served.detail;
  EXPECT_EQ(served.batch_size, 1u) << "expired requests must not ride along";
  for (std::future<Response>* future : {&expired_a, &expired_b}) {
    EXPECT_EQ(future->get().status, StatusCode::kDeadlineExceeded);
  }
  engine.stop();
  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.timed_out, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(engine.outstanding_total(), 0u);
}

// A budget of INT64_MAX means "never": enqueue_us + budget must saturate
// instead of overflowing (signed overflow, caught by UBSan), in the
// default deadline and in the batch close time alike, and the engine must
// still serve correctly.
TEST(InferenceEngine, Int64MaxBudgetsSaturate) {
  const hw::QNetDesc desc = make_test_qnet(91, false);
  const hw::AcceleratorExecutor reference(desc);
  DeployConfig config = small_deploy_config();
  config.workers = 1;
  config.max_batch = 2;
  config.max_wait_us = std::numeric_limits<std::int64_t>::max();
  config.default_deadline_us = std::numeric_limits<std::int64_t>::max();
  InferenceEngine engine({desc}, config);

  util::Rng rng{92};
  Tensor images{Shape{3, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);
  // Two requests fill the batch, ending the never-closing wait...
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 2; ++i) {
    futures.push_back(engine.submit(tensor::slice_outer(images, i, i + 1)));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    const Response response = futures[i].get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    EXPECT_EQ(response.batch_size, 2u);
    EXPECT_EQ(tensor::max_abs_diff(
                  response.logits,
                  reference.run(tensor::slice_outer(images, i, i + 1))),
              0.0f);
  }
  // ...and a lone request leaves it only when stop() closes the queue.
  std::future<Response> lone = engine.submit(tensor::slice_outer(images, 2, 3));
  engine.stop();
  const Response response = lone.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(
                response.logits,
                reference.run(tensor::slice_outer(images, 2, 3))),
            0.0f);
}

TEST(InferenceEngine, ManyConcurrentClients) {
  const hw::QNetDesc desc = make_test_qnet(81, false);
  DeployConfig config = small_deploy_config();
  config.max_batch = 8;
  config.workers = 4;
  InferenceEngine engine({desc}, config);

  constexpr int kClients = 6;
  constexpr int kPerClient = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&engine, &ok_count, c] {
      util::Rng rng{static_cast<std::uint64_t>(100 + c)};
      // Half the clients submit batch-priority traffic: mixed classes must
      // all complete when there is no overload.
      SubmitOptions options;
      options.priority = c % 2 == 0 ? Priority::kInteractive
                                    : Priority::kBatch;
      for (int i = 0; i < kPerClient; ++i) {
        Tensor image{Shape{1, 3, 16, 16}};
        image.fill_uniform(rng, -1.0f, 1.0f);
        if (ok(engine.submit(std::move(image), options).get().status)) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_GT(stats.mean_batch_size, 0.99);
  const std::size_t interactive =
      static_cast<std::size_t>(Priority::kInteractive);
  const std::size_t batch = static_cast<std::size_t>(Priority::kBatch);
  EXPECT_EQ(stats.completed_by_class[interactive] +
                stats.completed_by_class[batch],
            stats.completed);
  EXPECT_GT(stats.completed_by_class[interactive], 0u);
  EXPECT_GT(stats.completed_by_class[batch], 0u);
}

TEST(InferenceEngine, ThrowsOnEmptyModelList) {
  EXPECT_THROW(InferenceEngine(std::vector<hw::QNetDesc>{},
                               small_deploy_config()),
               std::invalid_argument);
}

TEST(InferenceEngine, CapacityOneQueueStillServesBatchTraffic) {
  // Regression for the capacity-1 edge of the interactive reserve: with the
  // 1/8-of-capacity reserve floored at one slot, a naive floor would claim
  // the *only* slot of a capacity-1 queue for kInteractive and silently
  // reject every kBatch submission with kQueueFull. The intended behavior
  // (documented on RequestQueue::interactive_reserve) is that capacities
  // below 2 reserve nothing — the lone slot is first-come for either class.
  // This exercises it end to end through the engine, not just the queue.
  const hw::QNetDesc qnet = make_test_qnet(61, false);
  DeployConfig config = small_deploy_config();
  config.queue_capacity = 1;
  config.max_batch = 1;
  config.workers = 1;
  InferenceEngine engine({qnet}, config);
  EXPECT_EQ(engine.config().queue_capacity, 1u);

  util::Rng rng{62};
  SubmitOptions batch_options;
  batch_options.priority = Priority::kBatch;
  batch_options.deadline_us = 0;
  std::vector<std::future<Response>> futures;
  // Sequential closed loop: each kBatch request must be admitted (the queue
  // drains between submissions), never rejected by a phantom reserve.
  for (int i = 0; i < 8; ++i) {
    Tensor image{Shape{1, 3, 16, 16}};
    image.fill_uniform(rng, -1.0f, 1.0f);
    const Response response =
        engine.submit(std::move(image), batch_options).get();
    EXPECT_TRUE(ok(response.status))
        << "kBatch starved on a capacity-1 queue: " << response.detail;
  }
  engine.stop();
  EXPECT_EQ(engine.stats().snapshot().completed, 8u);
}

// ---- stats aggregation edge cases ------------------------------------------

TEST(ServerStatsAggregate, EmptyPartListYieldsZeroSnapshotWithoutNans) {
  const StatsSnapshot empty = ServerStats::aggregate({});
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_EQ(empty.batches, 0u);
  EXPECT_EQ(empty.e2e_p99_us, 0);
  // Degenerate windows must report zero rates, not divide by ~0.
  EXPECT_EQ(empty.throughput_rps, 0.0);
  EXPECT_EQ(empty.sim_accel_utilization, 0.0);
  EXPECT_EQ(empty.mean_batch_size, 0.0);
  EXPECT_TRUE(empty.devices.empty());
}

TEST(ServerStatsAggregate, ZeroWindowPartsReportZeroRates) {
  // Freshly-constructed collectors have a near-zero observation window; the
  // aggregate must hit the same min-window guard snapshot() has and report
  // finite zero rates instead of inf/NaN.
  ServerStats a, b;
  const StatsSnapshot merged = ServerStats::aggregate({&a, &b});
  EXPECT_EQ(merged.completed, 0u);
  EXPECT_TRUE(std::isfinite(merged.throughput_rps));
  EXPECT_TRUE(std::isfinite(merged.sim_accel_utilization));
}

TEST(ServerStatsAggregate, SkipsNullPartsAndMergesMixedDevices) {
  // Two collectors shaped like differently-provisioned devices: different
  // batch-size mixes (histogram vectors of different lengths) and
  // different per-batch modeled costs. The merge must be exact — counters
  // sum, histograms add bucket-by-bucket — and null entries must be
  // skipped, not dereferenced.
  ServerStats slow, fast;
  slow.record_batch(2, 800.0, 64.0);
  slow.record_response(900, 100, Priority::kInteractive);
  slow.record_response(1100, 150, Priority::kInteractive);
  fast.record_batch(8, 800.0, 256.0);  // 4x device: bigger batch, same time
  for (int i = 0; i < 8; ++i) {
    fast.record_response(250, 50, Priority::kBatch);
  }

  std::vector<ServerStats::PartTotals> totals;
  const StatsSnapshot merged =
      ServerStats::aggregate({&slow, nullptr, &fast, nullptr}, &totals);
  // Per-part totals are read in the same locked pass as the merge:
  // index-aligned with the inputs, zeroed for null entries, summing to the
  // aggregate.
  ASSERT_EQ(totals.size(), 4u);
  EXPECT_EQ(totals[0].completed, 2u);
  EXPECT_EQ(totals[1].completed, 0u);
  EXPECT_EQ(totals[2].completed, 8u);
  EXPECT_DOUBLE_EQ(totals[0].sim_accel_busy_us, 800.0);
  EXPECT_DOUBLE_EQ(totals[1].sim_accel_busy_us, 0.0);
  EXPECT_EQ(totals[0].completed + totals[2].completed, merged.completed);
  EXPECT_EQ(merged.completed, 10u);
  EXPECT_EQ(merged.batches, 2u);
  EXPECT_DOUBLE_EQ(merged.mean_batch_size, 5.0);
  EXPECT_DOUBLE_EQ(merged.sim_accel_busy_us, 1600.0);
  EXPECT_DOUBLE_EQ(merged.sim_dma_bytes, 320.0);
  ASSERT_GE(merged.batch_size_histogram.size(), 9u);
  EXPECT_EQ(merged.batch_size_histogram[2], 1u);
  EXPECT_EQ(merged.batch_size_histogram[8], 1u);
  EXPECT_EQ(merged.completed_by_class[static_cast<std::size_t>(
                Priority::kInteractive)],
            2u);
  EXPECT_EQ(
      merged.completed_by_class[static_cast<std::size_t>(Priority::kBatch)],
      8u);
  // The merged e2e histogram spans both devices' latency ranges.
  EXPECT_LE(merged.e2e_p50_us, 300);
  EXPECT_GE(merged.e2e_max_us, 1100);
}

// Regression (caught by -Wthread-safety, reproduced under TSan): concurrent
// stop() callers — reachable in production as ~InferenceEngine racing
// ReplicaSet::stop — used to race on the worker thread vector, and the
// loser could return while workers were still running. The contract now:
// *every* stop() caller blocks until all workers have exited.
TEST(InferenceEngine, ConcurrentStopWaitsForAllWorkers) {
  constexpr int kWorkers = 3;
  for (int iteration = 0; iteration < 100; ++iteration) {
    auto backend = std::make_shared<GatedBackend>();
    DeployConfig config = small_deploy_config();
    config.workers = kWorkers;
    config.max_batch = 1;
    InferenceEngine engine(backend, config);
    // One request per worker, each held inside execute() by the gate.
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < kWorkers; ++i) {
      futures.push_back(engine.submit(Tensor{Shape{3, 16, 16}}));
    }
    backend->await_entered(kWorkers);

    std::atomic<bool> go{false};
    std::vector<std::thread> stoppers;
    for (int j = 0; j < 3; ++j) {
      stoppers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        engine.stop();
        // The postcondition every caller relies on (the engine destructor
        // must not return while a worker can still touch the engine).
        EXPECT_EQ(backend->live_workers(), 0);
      });
    }
    go.store(true, std::memory_order_release);
    backend->open();
    for (std::thread& stopper : stoppers) stopper.join();
    for (std::future<Response>& future : futures) {
      EXPECT_TRUE(ok(future.get().status));
    }
    // stop() after the workers are gone is a no-op, not a hang.
    engine.stop();
  }
}

}  // namespace
}  // namespace mfdfp::serve
