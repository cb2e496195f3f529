// ThreadSanitizer stress for the serving engine: many client threads
// submitting while batches run, rejects racing accepts on a tiny
// queue, and Shutdown racing in-flight submits from several threads at
// once. The `tsan` preset runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "tensor/tensor.h"

namespace {

namespace ts = ::geotorch::tensor;
namespace data = ::geotorch::data;
namespace serve = ::geotorch::serve;

data::Sample MakeSample(float v) {
  data::Sample s;
  s.x = ts::Tensor::Full({8}, v);
  return s;
}

serve::EngineOptions SmallOptions(int max_queue) {
  serve::EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 50;
  opts.max_queue = max_queue;
  opts.warmup_batches = 1;
  return opts;
}

TEST(ServeTsanTest, ConcurrentSubmitsAndGracefulShutdown) {
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{8}, {}}, SmallOptions(256));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, &ok, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto r = engine.Submit(MakeSample(static_cast<float>(t * 100 + i)));
        if (r.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  engine.Shutdown();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(engine.stats().requests, kThreads * kPerThread);
}

TEST(ServeTsanTest, BackpressureRacesAcceptsOnATinyQueue) {
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{8}, {}}, SmallOptions(2));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 30;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, &ok, &rejected] {
      for (int i = 0; i < kPerThread; ++i) {
        auto r = engine.Submit(MakeSample(1.0f));
        if (r.ok()) {
          ok.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  const auto stats = engine.stats();
  EXPECT_EQ(ok.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(stats.requests, ok.load());
  EXPECT_EQ(stats.rejected, rejected.load());
}

TEST(ServeTsanTest, ShutdownRacesInFlightSubmits) {
  serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                       serve::SampleSpec{{8}, {}}, SmallOptions(64));
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&engine, &stop] {
      // Submit until the engine starts refusing; accepted requests must
      // still complete (the future resolves) even mid-shutdown.
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = engine.Submit(MakeSample(2.0f));
        if (!r.ok() &&
            r.status().code() == geotorch::StatusCode::kInvalidArgument) {
          break;  // engine shut down
        }
      }
    });
  }
  // Let the clients get going, then shut down from two threads at once.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread closer1([&engine] { engine.Shutdown(); });
  std::thread closer2([&engine] { engine.Shutdown(); });
  closer1.join();
  closer2.join();
  stop.store(true);
  for (auto& c : clients) c.join();
  SUCCEED();  // the assertion is TSan finding no races and no deadlock
}

}  // namespace
