// ThreadSanitizer stress for the streaming pipeline: the producer,
// aggregator, and predictor stages racing each other over the bounded
// rings, the predictor's submits racing the fleet's hot reloads
// (snapshot pointer swaps), stats pollers and hot-cell-index readers
// racing the aggregator thread, and Stop racing all of it. Under the
// `tsan` preset any data race aborts the test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "serve/config.h"
#include "serve/fleet.h"
#include "spatial/geometry.h"
#include "spatial/grid.h"
#include "stream/event.h"
#include "stream/options.h"
#include "stream/pipeline.h"
#include "tensor/tensor.h"

namespace {

namespace data = ::geotorch::data;
namespace serve = ::geotorch::serve;
namespace spatial = ::geotorch::spatial;
namespace stream = ::geotorch::stream;
namespace ts = ::geotorch::tensor;
using geotorch::Rng;
using geotorch::Status;

// Synthetic ordered source: a burst of uniform events per tick, clock
// advancing one window slide every few ticks, unbounded duration (the
// test always ends via Stop).
class BurstSource : public stream::EventSource {
 public:
  explicit BurstSource(uint64_t seed) : rng_(seed) {}

  bool NextTick(std::vector<stream::Event>* out) override {
    const int64_t n = rng_.UniformInt(8, 32);
    for (int64_t i = 0; i < n; ++i) {
      stream::Event e;
      e.lon = rng_.Uniform();
      e.lat = rng_.Uniform();
      e.time_sec = rng_.UniformInt(tick_start_, tick_start_ + 29);
      e.is_pickup = rng_.Bernoulli(0.5);
      out->push_back(e);
    }
    tick_start_ += 30;
    return true;
  }

 private:
  Rng rng_;
  int64_t tick_start_ = 0;
};

serve::SnapshotFactory ReloadableEchoFactory() {
  return [] {
    serve::ModelSnapshot snap;
    snap.forward = [](const data::Batch& batch) { return batch.x; };
    // Reloadable: the hot-swap machinery (shadow build, swap, drain)
    // runs for real; only the weight load itself is a no-op.
    snap.load = [](const std::string&) { return Status::OK(); };
    return snap;
  };
}

TEST(StreamTsanTest, StagesRaceReloadsPollersAndShutdown) {
  stream::StreamOptions opts;
  opts.window_sec = 60;
  opts.slide_sec = 60;
  opts.queue = 256;
  opts.window_queue = 8;
  opts.len_closeness = 2;
  opts.steps_per_day = 4;

  serve::FleetOptions fleet_opts;
  fleet_opts.replicas = 2;
  fleet_opts.engine.max_batch = 2;
  fleet_opts.engine.max_delay_us = 50;
  fleet_opts.engine.max_queue = 64;
  fleet_opts.engine.warmup_batches = 0;
  serve::Fleet fleet(fleet_opts);
  ASSERT_TRUE(fleet
                  .AddModel("echo", ReloadableEchoFactory(),
                            serve::SampleSpec{
                                {opts.len_closeness * 2, 3, 3}, {}})
                  .ok());

  BurstSource source(/*seed=*/77);
  spatial::GridPartitioner grid(spatial::Envelope(0.0, 0.0, 1.0, 1.0),
                                3, 3);
  stream::Pipeline pipeline(&source, &fleet, grid, "echo", opts);
  pipeline.Start();

  // Reloader: hot-swaps both replicas under live predictor traffic.
  std::atomic<bool> quit{false};
  std::atomic<int> reloads_ok{0};
  std::thread reloader([&] {
    while (!quit.load(std::memory_order_acquire)) {
      if (fleet.Reload("echo", "unused-path").ok()) {
        reloads_ok.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Pollers: stats snapshots and hot-cell-index queries from outside
  // the stage threads.
  std::thread poller([&] {
    int64_t sink = 0;
    while (!quit.load(std::memory_order_acquire)) {
      const stream::PipelineStats stats = pipeline.stats();
      sink += stats.events_ingested + stats.windows_closed;
      auto index = pipeline.aggregator().HotCellIndex();
      if (index != nullptr) {
        sink += static_cast<int64_t>(
            index->Query(spatial::Envelope(0.0, 0.0, 1.0, 1.0)).size());
      }
      std::this_thread::yield();
    }
    EXPECT_GE(sink, 0);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  pipeline.Stop();  // races the reloader and poller by design
  quit.store(true, std::memory_order_release);
  reloader.join();
  poller.join();

  const stream::PipelineStats stats = pipeline.stats();
  EXPECT_GT(stats.events_ingested, 0);
  EXPECT_EQ(stats.events_processed, stats.events_ingested);
  EXPECT_EQ(stats.windows_closed,
            stats.predictions_ok + stats.predictions_failed);
  EXPECT_GT(reloads_ok.load(), 0);
  auto version = fleet.ModelVersion("echo");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1 + reloads_ok.load());
}

}  // namespace
