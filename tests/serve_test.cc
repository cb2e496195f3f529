// The dynamically-batched serving engine: concurrent submits must come
// back with exactly their own output row (bitwise equal to a direct
// single-sample forward), each batch is whatever was queued (capped at
// max_batch, never waiting for more), the bounded queue must reject —
// not block — when full, and shutdown must drain everything already
// accepted.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/grid_models.h"
#include "nn/precision.h"
#include "serve/adapters.h"
#include "serve/config.h"
#include "serve/engine.h"
#include "tensor/device.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;
namespace data = ::geotorch::data;
namespace datasets = ::geotorch::datasets;
namespace models = ::geotorch::models;
namespace nn = ::geotorch::nn;
namespace serve = ::geotorch::serve;

std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  if (t.numel() > 0) {
    std::memcpy(bits.data(), t.data(), t.numel() * sizeof(uint32_t));
  }
  return bits;
}

serve::EngineOptions FastOptions() {
  serve::EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 100;
  opts.max_queue = 64;
  opts.warmup_batches = 1;
  return opts;
}

// --- EngineOptions::FromEnv -------------------------------------------------

struct EnvVarGuard {
  explicit EnvVarGuard(std::vector<const char*> names)
      : names_(std::move(names)) {}
  ~EnvVarGuard() {
    for (const char* n : names_) unsetenv(n);
  }
  std::vector<const char*> names_;
};

TEST(EngineOptionsTest, FromEnvDefaultsWhenUnset) {
  EnvVarGuard guard({"GEOTORCH_SERVE_MAX_BATCH", "GEOTORCH_SERVE_MAX_QUEUE",
                     "GEOTORCH_SERVE_WARMUP"});
  const serve::EngineOptions opts = serve::EngineOptions::FromEnv();
  const serve::EngineOptions defaults;
  EXPECT_EQ(opts.max_batch, defaults.max_batch);
  EXPECT_EQ(opts.max_queue, defaults.max_queue);
  EXPECT_EQ(opts.warmup_batches, defaults.warmup_batches);
}

TEST(EngineOptionsTest, FromEnvParsesAndClamps) {
  EnvVarGuard guard({"GEOTORCH_SERVE_MAX_BATCH", "GEOTORCH_SERVE_MAX_QUEUE",
                     "GEOTORCH_SERVE_WARMUP"});
  setenv("GEOTORCH_SERVE_MAX_BATCH", "32", 1);
  setenv("GEOTORCH_SERVE_MAX_QUEUE", "0", 1);     // clamped to 1
  setenv("GEOTORCH_SERVE_WARMUP", "bogus", 1);    // unparsable -> default
  const serve::EngineOptions opts = serve::EngineOptions::FromEnv();
  EXPECT_EQ(opts.max_batch, 32);
  EXPECT_EQ(opts.max_queue, 1);
  EXPECT_EQ(opts.warmup_batches, serve::EngineOptions{}.warmup_batches);
}

TEST(EngineOptionsTest, FromEnvParsesPrecision) {
  EnvVarGuard guard({"GEOTORCH_SERVE_PRECISION"});
  unsetenv("GEOTORCH_SERVE_PRECISION");
  EXPECT_EQ(serve::EngineOptions::FromEnv().precision, nn::Precision::kF32);
  // Only f32 and int8 are precisions; any other value is ignored and
  // the engine serves f32.
  setenv("GEOTORCH_SERVE_PRECISION", "bf16", 1);
  EXPECT_EQ(serve::EngineOptions::FromEnv().precision, nn::Precision::kF32);
  setenv("GEOTORCH_SERVE_PRECISION", "int8", 1);
  EXPECT_EQ(serve::EngineOptions::FromEnv().precision, nn::Precision::kInt8);
  setenv("GEOTORCH_SERVE_PRECISION", "float32", 1);
  EXPECT_EQ(serve::EngineOptions::FromEnv().precision, nn::Precision::kF32);
  setenv("GEOTORCH_SERVE_PRECISION", "fp7", 1);  // unknown -> keep default
  EXPECT_EQ(serve::EngineOptions::FromEnv().precision, nn::Precision::kF32);
}

// --- Echo engine: scatter correctness under concurrency ---------------------

TEST(EngineTest, ConcurrentSubmitsGetTheirOwnRows) {
  // Identity forward: output row i == input row i, so every client can
  // verify it got exactly its own sample back even when coalesced.
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{4}, {}}, FastOptions());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, &mismatches, t] {
      for (int i = 0; i < kPerThread; ++i) {
        data::Sample s;
        s.x = ts::Tensor::Full({4}, static_cast<float>(t * 1000 + i));
        auto out = engine.Submit(s);
        if (!out.ok() || Bits(*out) != Bits(s.x)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GE(stats.batches, (kThreads * kPerThread + 3) / 4);
}

TEST(EngineTest, SingleClientBatchedKeepsBatchOneThroughput) {
  // A lone sequential client submits only after the previous reply,
  // so it never coalesces, and a batched engine must not charge it any
  // wait for a batch to fill: the batcher runs whatever is queued at
  // once (DESIGN.md §9). Compare wall time against an identical engine
  // at max_batch = 1. A batcher that waited even 1.25 ms per request
  // for company would pay ~50 ms here, an order of magnitude past the
  // bound.
  constexpr int kRequests = 40;
  auto run_us = [](int max_batch) {
    serve::EngineOptions opts;
    opts.max_batch = max_batch;
    opts.max_delay_us = 20000;  // not read by the engine
    opts.max_queue = 64;
    opts.warmup_batches = 1;
    serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                         serve::SampleSpec{{4}, {}}, opts);
    data::Sample s;
    s.x = ts::Tensor::Full({4}, 1.0f);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      auto out = engine.Submit(s);
      EXPECT_TRUE(out.ok());
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const int64_t batched_us = run_us(/*max_batch=*/16);
  const int64_t unbatched_us = run_us(/*max_batch=*/1);
  EXPECT_LE(batched_us, 3 * unbatched_us + 5000)
      << "batched " << batched_us << " us vs batch-1 " << unbatched_us
      << " us";
}

TEST(EngineTest, ScalarOutputRowsComeBackAsSingletons) {
  // Forward returning shape (B): each caller gets a {1} tensor.
  serve::Engine engine(
      [](const data::Batch& batch) {
        ts::Tensor out = ts::Tensor::Uninitialized({batch.size});
        for (int64_t i = 0; i < batch.size; ++i) {
          out.data()[i] = batch.x.data()[i * 3];  // first element of row i
        }
        return out;
      },
      serve::SampleSpec{{3}, {}}, FastOptions());
  data::Sample s;
  s.x = ts::Tensor::Full({3}, 7.5f);
  auto out = engine.Submit(s);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), ts::Shape({1}));
  EXPECT_EQ(out->data()[0], 7.5f);
}

// --- Validation -------------------------------------------------------------

TEST(EngineTest, RejectsShapeMismatches) {
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{4}, {{2}}}, FastOptions());
  data::Sample bad_x;
  bad_x.x = ts::Tensor::Zeros({5});
  bad_x.extras.push_back(ts::Tensor::Zeros({2}));
  auto r1 = engine.Submit(bad_x);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), geotorch::StatusCode::kInvalidArgument);

  data::Sample missing_extra;
  missing_extra.x = ts::Tensor::Zeros({4});
  auto r2 = engine.Submit(missing_extra);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), geotorch::StatusCode::kInvalidArgument);

  data::Sample bad_extra;
  bad_extra.x = ts::Tensor::Zeros({4});
  bad_extra.extras.push_back(ts::Tensor::Zeros({3}));
  auto r3 = engine.Submit(bad_extra);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), geotorch::StatusCode::kInvalidArgument);
}

TEST(EngineTest, SubmitAfterShutdownFails) {
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{2}, {}}, FastOptions());
  engine.Shutdown();
  engine.Shutdown();  // idempotent
  data::Sample s;
  s.x = ts::Tensor::Zeros({2});
  auto r = engine.Submit(s);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), geotorch::StatusCode::kInvalidArgument);
}

// --- Batching policy --------------------------------------------------------

// A forward that records each batch it runs (the first value of every
// row) and then blocks until the test opens a gate, so the queue can be
// filled deterministically while the batcher is stuck mid-batch.
class GatedForward {
 public:
  ts::Tensor operator()(const data::Batch& batch) {
    std::unique_lock<std::mutex> lock(mu_);
    const int64_t row = batch.x.numel() / batch.size;
    std::vector<float> firsts;
    for (int64_t i = 0; i < batch.size; ++i) {
      firsts.push_back(batch.x.data()[i * row]);
    }
    batches_.push_back(std::move(firsts));
    in_forward_.fetch_add(1);
    cv_.wait(lock, [this] { return open_; });
    return batch.x;
  }
  void WaitUntilInForward(int n) {
    while (in_forward_.load() < n) std::this_thread::yield();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::vector<std::vector<float>> Batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<std::vector<float>> batches_;
  std::atomic<int> in_forward_{0};
};

serve::EngineOptions PolicyOptions() {
  serve::EngineOptions opts;
  opts.max_batch = 16;
  opts.max_queue = 64;
  opts.warmup_batches = 0;  // warmup would block on the latch
  return opts;
}

data::Sample IdSample(int id) {
  data::Sample s;
  s.x = ts::Tensor::Full({1}, static_cast<float>(id));
  return s;
}

TEST(BatchPolicyTest, LoneRequestRunsAtOnceWithoutASecondSubmit) {
  auto gate = std::make_shared<GatedForward>();
  serve::Engine engine([gate](const data::Batch& b) { return (*gate)(b); },
                       serve::SampleSpec{{1}, {}}, PolicyOptions());
  std::thread client([&engine] {
    auto r = engine.Submit(IdSample(7));
    EXPECT_TRUE(r.ok() && r->data()[0] == 7.0f);
  });
  // The one request reaches the forward alone: the batcher does not
  // wait for company to fill its 16 slots.
  gate->WaitUntilInForward(1);
  EXPECT_EQ(gate->Batches(), (std::vector<std::vector<float>>{{7.0f}}));
  gate->Open();
  client.join();
  EXPECT_EQ(engine.stats().batches, 1);
}

TEST(BatchPolicyTest, RequestsQueuedDuringAForwardFormTheNextBatch) {
  for (int k : {1, 3, 16, 21}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    auto gate = std::make_shared<GatedForward>();
    serve::Engine engine([gate](const data::Batch& b) { return (*gate)(b); },
                         serve::SampleSpec{{1}, {}}, PolicyOptions());
    std::vector<std::thread> clients;
    auto submit = [&engine, &clients](int id) {
      clients.emplace_back([&engine, id] {
        auto r = engine.Submit(IdSample(id));
        EXPECT_TRUE(r.ok() && r->data()[0] == static_cast<float>(id));
      });
    };
    // Request 0 holds the batcher in its forward; requests 1..k queue
    // behind it, one at a time so the queue order is their id order.
    submit(0);
    gate->WaitUntilInForward(1);
    for (int id = 1; id <= k; ++id) {
      submit(id);
      while (engine.queue_depth() < id) std::this_thread::yield();
    }
    gate->Open();
    for (auto& c : clients) c.join();

    // Everything queued when the forward finished, capped at
    // max_batch, is the next batch, in FIFO order; the rest follows.
    std::vector<std::vector<float>> want = {{0.0f}, {}};
    for (int id = 1; id <= k; ++id) {
      if (want.back().size() == 16) want.emplace_back();
      want.back().push_back(static_cast<float>(id));
    }
    EXPECT_EQ(gate->Batches(), want);
  }
}

// --- Backpressure and drain -------------------------------------------------

TEST(EngineTest, FullQueueRejectsWithBackpressure) {
  auto gate = std::make_shared<GatedForward>();
  serve::EngineOptions opts;
  opts.max_batch = 1;
  opts.max_delay_us = 0;
  opts.max_queue = 2;
  opts.warmup_batches = 0;  // warmup would block on the gate
  serve::Engine engine(
      [gate](const data::Batch& batch) { return (*gate)(batch); },
      serve::SampleSpec{{2}, {}}, opts);

  data::Sample s;
  s.x = ts::Tensor::Full({2}, 1.0f);

  // First submit: picked up by the batcher, which blocks in forward.
  std::thread first([&engine, s] {
    auto r = engine.Submit(s);
    EXPECT_TRUE(r.ok());
  });
  gate->WaitUntilInForward(1);

  // Fill the queue behind the stuck batch.
  std::vector<std::thread> queued;
  for (int i = 0; i < 2; ++i) {
    queued.emplace_back([&engine, s] {
      auto r = engine.Submit(s);
      EXPECT_TRUE(r.ok());
    });
  }
  while (engine.stats().requests < 3) std::this_thread::yield();

  // Queue is full now: the next submit must be rejected, not block.
  auto rejected = engine.Submit(s);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), geotorch::StatusCode::kOutOfRange);
  EXPECT_EQ(engine.stats().rejected, 1);

  gate->Open();
  first.join();
  for (auto& t : queued) t.join();
  EXPECT_EQ(engine.stats().requests, 3);
}

TEST(EngineTest, DeadlineExpiresBehindStalledBatcherThenDrains) {
  auto gate = std::make_shared<GatedForward>();
  serve::EngineOptions opts;
  opts.max_batch = 1;
  opts.max_delay_us = 0;
  opts.max_queue = 16;
  opts.warmup_batches = 0;
  serve::Engine engine(
      [gate](const data::Batch& batch) { return (*gate)(batch); },
      serve::SampleSpec{{2}, {}}, opts);

  data::Sample s;
  s.x = ts::Tensor::Full({2}, 4.0f);

  // First request occupies the batcher, which blocks at the gate.
  std::thread first([&engine, s] {
    auto r = engine.Submit(s);
    EXPECT_TRUE(r.ok());
  });
  gate->WaitUntilInForward(1);

  // Queued behind a stalled batcher with a tight deadline: the caller
  // must get DeadlineExceeded instead of blocking forever.
  auto expired = engine.Submit(s, /*deadline_us=*/2000);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(),
            geotorch::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1);
  // The request was ADMITTED — it still counts and still gets served
  // in the background once the batcher unsticks.
  EXPECT_EQ(engine.stats().requests, 2);

  gate->Open();
  first.join();
  engine.Drain();  // covers the abandoned request too
  EXPECT_GE(engine.stats().batches, 2);

  // With the batcher healthy, a generous deadline never fires.
  auto prompt = engine.Submit(s, /*deadline_us=*/5'000'000);
  ASSERT_TRUE(prompt.ok());
  EXPECT_TRUE(Bits(*prompt) == Bits(s.x));
  EXPECT_EQ(engine.stats().deadline_exceeded, 1);
}

TEST(EngineTest, ShutdownDrainsAcceptedRequests) {
  auto gate = std::make_shared<GatedForward>();
  serve::EngineOptions opts;
  opts.max_batch = 2;
  opts.max_delay_us = 0;
  opts.max_queue = 16;
  opts.warmup_batches = 0;
  serve::Engine engine(
      [gate](const data::Batch& batch) { return (*gate)(batch); },
      serve::SampleSpec{{2}, {}}, opts);

  data::Sample s;
  s.x = ts::Tensor::Full({2}, 3.0f);

  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&engine, &served, s] {
      auto r = engine.Submit(s);
      if (r.ok()) served.fetch_add(1);
    });
  }
  // Wait until all five are accepted (queued or mid-batch), then shut
  // down while the gate still blocks the batcher.
  while (engine.stats().requests < 5) std::this_thread::yield();
  std::thread closer([&engine] { engine.Shutdown(); });
  gate->Open();
  closer.join();
  for (auto& c : clients) c.join();
  // Every accepted request was served before the batcher exited.
  EXPECT_EQ(served.load(), 5);
}

TEST(EngineTest, DrainWaitsForInFlightAnswersNotJustAnEmptyQueue) {
  // Drain()'s contract is "answered, not dequeued": a request the
  // batcher has already pulled into a batch leaves the queue empty, but
  // its caller has not been answered yet. A drain that only watched the
  // queue would return here — and a fleet reload using it would retire
  // the model while the forward still runs on it. Pin the strong
  // semantics: Drain must block until the gated forward completes and
  // the promise is fulfilled.
  auto gate = std::make_shared<GatedForward>();
  serve::EngineOptions opts;
  opts.max_batch = 1;
  opts.max_delay_us = 0;
  opts.max_queue = 16;
  opts.warmup_batches = 0;
  serve::Engine engine(
      [gate](const data::Batch& batch) { return (*gate)(batch); },
      serve::SampleSpec{{2}, {}}, opts);

  data::Sample s;
  s.x = ts::Tensor::Full({2}, 1.0f);
  std::thread client([&engine, s] { EXPECT_TRUE(engine.Submit(s).ok()); });
  gate->WaitUntilInForward(1);
  ASSERT_EQ(engine.queue_depth(), 0);  // dequeued — but not answered

  std::atomic<bool> drained{false};
  std::thread drainer([&engine, &drained] {
    engine.Drain();
    drained.store(true, std::memory_order_release);
  });
  // Give the drainer ample time to (wrongly) return early.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load(std::memory_order_acquire));

  gate->Open();
  drainer.join();
  client.join();
  EXPECT_TRUE(drained.load());
  // The engine keeps serving after a drain — this is not a shutdown.
  EXPECT_TRUE(engine.Submit(s).ok());
}

TEST(EngineTest, DrainOnIdleEngineReturnsImmediately) {
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{2}, {}}, FastOptions());
  engine.Drain();  // nothing accepted, nothing to wait for
  data::Sample s;
  s.x = ts::Tensor::Full({2}, 2.0f);
  ASSERT_TRUE(engine.Submit(s).ok());
  engine.Drain();  // everything accepted so far is already answered
}

TEST(EngineTest, DrainRacingSubmitsNeitherDeadlocksNorStarves) {
  // Drain snapshots its target at entry: requests accepted AFTER the
  // Drain call starts are not waited for, so a steady stream of new
  // submits cannot starve a drainer. Hammer submits from several
  // threads while draining repeatedly from another.
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{2}, {}}, FastOptions());
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&engine, &stop, &served] {
      data::Sample s;
      s.x = ts::Tensor::Full({2}, 4.0f);
      while (!stop.load(std::memory_order_relaxed)) {
        if (engine.Submit(s).ok()) served.fetch_add(1);
      }
    });
  }
  // Keep draining until real traffic has flowed through the races.
  while (served.load(std::memory_order_relaxed) < 200) engine.Drain();
  stop.store(true);
  for (auto& c : clients) c.join();
  EXPECT_GT(served.load(), 0);
  engine.Drain();  // full quiesce: everything accepted is now answered
  EXPECT_EQ(engine.queue_depth(), 0);
}

// --- Against a real model ---------------------------------------------------

TEST(EngineTest, BatchedForwardMatchesDirectSingleSampleForward) {
  ts::DeviceGuard device(ts::Device::kParallel);

  datasets::GridDataset ds = datasets::MakeTemperature(
      /*timesteps=*/200, /*height=*/8, /*width=*/8, /*seed=*/7);
  ds.MinMaxNormalize();
  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 8;
  mc.seed = 42;
  ds.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                 mc.len_trend);
  models::PeriodicalCnn model(mc);

  serve::SampleSpec spec;
  {
    data::Sample probe = ds.Get(0);
    spec.x = probe.x.shape();
    for (const auto& e : probe.extras) spec.extras.push_back(e.shape());
  }

  serve::EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 2000;  // encourage real coalescing
  opts.max_queue = 64;
  opts.warmup_batches = 1;
  serve::Engine engine(serve::GridForward(model), spec, opts);

  // Direct single-sample forwards as ground truth. The engine batches
  // requests together, so this also checks that a row of a size-B
  // forward is bitwise identical to the same sample at B=1 (the
  // blocked GEMM fixes its K-accumulation order).
  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::vector<data::Sample> samples;
  std::vector<std::vector<uint32_t>> expected;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    samples.push_back(ds.Get(i));
    // Build a B=1 batch from the sample for the ground-truth forward.
    data::Batch one;
    ts::Shape xb = samples[i].x.shape();
    xb.insert(xb.begin(), 1);
    one.x = samples[i].x.Reshape(xb);
    for (const auto& e : samples[i].extras) {
      ts::Shape eb = e.shape();
      eb.insert(eb.begin(), 1);
      one.extras.push_back(e.Reshape(eb));
    }
    one.size = 1;
    ag::NoGradGuard no_grad;
    ts::Tensor out = model.Forward(one).value();
    ts::Shape row(out.shape().begin() + 1, out.shape().end());
    if (row.empty()) row.push_back(1);
    expected.push_back(Bits(out.Reshape(row)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = c * kPerClient + i;
        auto out = engine.Submit(samples[idx]);
        if (!out.ok() || Bits(*out) != expected[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.stats().requests, kClients * kPerClient);
}

// --- Checkpoint + serve integration -----------------------------------------

TEST(AdapterTest, WrappingAppliesRequestedPrecisionToTheModel) {
  datasets::GridDataset ds = datasets::MakeTemperature(
      /*timesteps=*/60, /*height=*/4, /*width=*/4, /*seed=*/9);
  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 4;
  mc.seed = 11;
  models::PeriodicalCnn model(mc);
  EXPECT_EQ(model.precision(), nn::Precision::kF32);

  // Wrapping quantizes (and packs) once at adapter-construction time,
  // and puts the model in eval mode so the low-precision gate engages.
  auto forward = serve::GridForward(model, nn::Precision::kInt8);
  EXPECT_EQ(model.precision(), nn::Precision::kInt8);
  EXPECT_FALSE(model.training());
  (void)forward;
}

TEST(EngineTest, ServesFromALoadedCheckpoint) {
  datasets::GridDataset ds = datasets::MakeTemperature(
      /*timesteps=*/200, /*height=*/8, /*width=*/8, /*seed=*/7);
  ds.MinMaxNormalize();
  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 8;
  mc.seed = 42;
  ds.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                 mc.len_trend);

  models::PeriodicalCnn trained(mc);
  const geotorch::ScopedTempPath path("served_model.ckpt");
  ASSERT_TRUE(geotorch::io::SaveStateDict(trained, path).ok());

  models::GridModelConfig mc2 = mc;
  mc2.seed = 99;
  models::PeriodicalCnn fresh(mc2);
  ASSERT_TRUE(geotorch::io::LoadStateDict(fresh, path).ok());

  serve::SampleSpec spec;
  data::Sample sample = ds.Get(0);
  spec.x = sample.x.shape();
  for (const auto& e : sample.extras) spec.extras.push_back(e.shape());
  serve::Engine engine(serve::GridForward(fresh), spec, FastOptions());

  auto served = engine.Submit(sample);
  ASSERT_TRUE(served.ok());

  // The engine must answer with the trained model's output.
  data::Batch one;
  ts::Shape xb = sample.x.shape();
  xb.insert(xb.begin(), 1);
  one.x = sample.x.Reshape(xb);
  for (const auto& e : sample.extras) {
    ts::Shape eb = e.shape();
    eb.insert(eb.begin(), 1);
    one.extras.push_back(e.Reshape(eb));
  }
  one.size = 1;
  trained.SetTraining(false);
  ag::NoGradGuard no_grad;
  ts::Tensor direct = trained.Forward(one).value();
  ts::Shape row(direct.shape().begin() + 1, direct.shape().end());
  EXPECT_EQ(Bits(*served), Bits(direct.Reshape(row)));
}

}  // namespace
