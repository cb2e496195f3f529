// ThreadSanitizer stress for the serving engine: many client threads
// submitting while batches run, rejects racing accepts on a tiny
// queue, Shutdown racing in-flight submits from several threads at
// once, and device flips on another thread while two engines serve.
// The `tsan` preset runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "models/grid_models.h"
#include "models/raster_models.h"
#include "serve/adapters.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace {

namespace ts = ::geotorch::tensor;
using ::geotorch::Device;
using ::geotorch::DeviceGuard;
namespace data = ::geotorch::data;
namespace serve = ::geotorch::serve;
namespace models = ::geotorch::models;

data::Sample MakeSample(float v) {
  data::Sample s;
  s.x = ts::Tensor::Full({8}, v);
  return s;
}

std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  std::memcpy(bits.data(), t.data(), bits.size() * sizeof(uint32_t));
  return bits;
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

TEST(ServeTsanTest, DeviceFlipsElsewhereLeaveServedAnswersBitwise) {
  // Two engines serve while the main thread flips its own DeviceGuard
  // and runs forwards of identical models on each device, the parallel
  // ones on the shared pool. Batchers pin their threads to the serial
  // device and serial equals parallel bitwise, so every served row and
  // every direct forward must match the serial B = 1 answer.
  models::RasterModelConfig rc;
  rc.in_channels = 3;
  rc.in_height = 16;
  rc.in_width = 16;
  rc.base_filters = 4;
  rc.seed = 5;
  models::GridModelConfig gc;
  gc.height = 8;
  gc.width = 8;
  gc.len_period = 1;
  gc.hidden = 8;
  gc.seed = 6;
  models::SatCnn eo_served(rc);
  models::SatCnn eo_direct(rc);
  models::StResNet grid_served(gc);
  models::StResNet grid_direct(gc);
  const serve::SampleSpec eo_spec{{3, 16, 16}, {}};
  const serve::SampleSpec grid_spec{{6, 8, 8}, {{2, 8, 8}, {2, 8, 8}}};
  const auto eo_forward = serve::ClassifierForward(eo_direct);
  const auto grid_forward = serve::GridForward(grid_direct);

  struct Model {
    serve::SampleSpec spec;
    const serve::Engine::BatchForward* forward;
    std::vector<data::Sample> samples;
    std::vector<std::vector<uint32_t>> want;
  };
  Model served[2] = {{eo_spec, &eo_forward, {}, {}},
                     {grid_spec, &grid_forward, {}, {}}};
  auto one_row = [](const ts::Tensor& t) {
    ts::Shape shape = t.shape();
    shape.insert(shape.begin(), 1);
    return t.Reshape(shape);
  };
  auto direct = [&one_row](const Model& m, int i) {
    data::Batch batch;
    batch.x = one_row(m.samples[i].x);
    for (const auto& e : m.samples[i].extras) {
      batch.extras.push_back(one_row(e));
    }
    batch.size = 1;
    return Bits((*m.forward)(batch));
  };
  constexpr int kSamples = 6;
  geotorch::Rng rng(9);
  for (Model& m : served) {
    DeviceGuard serial(Device::kSerial);
    for (int i = 0; i < kSamples; ++i) {
      data::Sample s;
      s.x = ts::Tensor::Rand(m.spec.x, rng);
      for (const auto& e : m.spec.extras) {
        s.extras.push_back(ts::Tensor::Rand(e, rng));
      }
      m.samples.push_back(s);
      m.want.push_back(direct(m, i));
    }
  }

  serve::Engine eo(serve::ClassifierForward(eo_served), eo_spec,
                   SmallOptions(64));
  serve::Engine grid(serve::GridForward(grid_served), grid_spec,
                     SmallOptions(64));
  serve::Engine* engines[2] = {&eo, &grid};
  constexpr int kClientsPerEngine = 2;
  constexpr int kPerClient = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> running{2 * kClientsPerEngine};
  std::vector<std::thread> clients;
  for (int e = 0; e < 2; ++e) {
    for (int c = 0; c < kClientsPerEngine; ++c) {
      clients.emplace_back([&, e, c] {
        for (int i = 0; i < kPerClient; ++i) {
          const int k = (i + c) % kSamples;
          auto r = engines[e]->Submit(served[e].samples[k]);
          if (!r.ok() || Bits(*r) != served[e].want[k]) {
            mismatches.fetch_add(1);
          }
        }
        running.fetch_sub(1);
      });
    }
  }
  int flips = 0;
  do {
    const Device dev =
        flips % 2 == 0 ? Device::kParallel : Device::kSerial;
    DeviceGuard guard(dev);
    const Model& m = served[(flips / 2) % 2];
    const int k = flips % kSamples;
    if (direct(m, k) != m.want[k]) mismatches.fetch_add(1);
    ++flips;
  } while (running.load() > 0);
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0) << "after " << flips << " device flips";
}

}  // namespace
