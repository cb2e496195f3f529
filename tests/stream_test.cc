// The streaming spatiotemporal pipeline: bounded rings must give
// backpressure and lossless close-then-drain, the incremental window
// aggregator must emit an unbroken, batch-bitwise-equal frame series
// (empty windows included) while dropping late / out-of-extent events,
// the epoch STR-tree must track exactly the active cells and rebuild
// only on change, the online predictor's stacks must mirror
// GridDataset's periodical representation with zero-padded warm-up,
// and the three-stage pipeline must account for every admitted event
// after both a natural end-of-stream and a mid-stream Stop.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "datasets/grid_dataset.h"
#include "serve/config.h"
#include "serve/fleet.h"
#include "spatial/geometry.h"
#include "spatial/grid.h"
#include "spatial/strtree.h"
#include "stream/aggregator.h"
#include "stream/event.h"
#include "stream/options.h"
#include "stream/pipeline.h"
#include "stream/predictor.h"
#include "stream/taxi_source.h"
#include "synth/taxi.h"
#include "tensor/ops.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace {

namespace data = ::geotorch::data;
namespace datasets = ::geotorch::datasets;
namespace serve = ::geotorch::serve;
namespace spatial = ::geotorch::spatial;
namespace stream = ::geotorch::stream;
namespace synth = ::geotorch::synth;
namespace ts = ::geotorch::tensor;
using geotorch::Rng;

bool SameBits(const ts::Tensor& a, const ts::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

spatial::Envelope UnitExtent() {
  return spatial::Envelope(0.0, 0.0, 1.0, 1.0);
}

stream::Event At(double lon, double lat, int64_t time_sec,
                 bool is_pickup = true, int64_t ingest_ns = 0) {
  stream::Event e;
  e.lon = lon;
  e.lat = lat;
  e.time_sec = time_sec;
  e.is_pickup = is_pickup;
  e.ingest_ns = ingest_ns;
  return e;
}

// --- StreamOptions::FromEnv -------------------------------------------------

struct EnvVarGuard {
  explicit EnvVarGuard(std::vector<const char*> names)
      : names_(std::move(names)) {
    for (const char* n : names_) unsetenv(n);
  }
  ~EnvVarGuard() {
    for (const char* n : names_) unsetenv(n);
  }
  std::vector<const char*> names_;
};

std::vector<const char*> AllStreamEnvVars() {
  return {"GEOTORCH_STREAM_WINDOW",        "GEOTORCH_STREAM_SLIDE",
          "GEOTORCH_STREAM_QUEUE",         "GEOTORCH_STREAM_WINDOW_QUEUE",
          "GEOTORCH_STREAM_CLOSENESS",     "GEOTORCH_STREAM_PERIOD",
          "GEOTORCH_STREAM_TREND",         "GEOTORCH_STREAM_STEPS_PER_DAY",
          "GEOTORCH_STREAM_TIMEOUT_US",    "GEOTORCH_STREAM_RATE"};
}

TEST(StreamOptionsTest, FromEnvDefaultsWhenUnset) {
  EnvVarGuard guard(AllStreamEnvVars());
  const stream::StreamOptions opts = stream::StreamOptions::FromEnv();
  const stream::StreamOptions defaults;
  EXPECT_EQ(opts.window_sec, defaults.window_sec);
  EXPECT_EQ(opts.slide_sec, defaults.slide_sec);
  EXPECT_EQ(opts.queue, defaults.queue);
  EXPECT_EQ(opts.window_queue, defaults.window_queue);
  EXPECT_EQ(opts.len_closeness, defaults.len_closeness);
  EXPECT_EQ(opts.target_eps, defaults.target_eps);
  EXPECT_EQ(opts.EffectiveSlide(), defaults.window_sec);  // tumbling
}

TEST(StreamOptionsTest, FromEnvParsesAndClamps) {
  EnvVarGuard guard(AllStreamEnvVars());
  setenv("GEOTORCH_STREAM_WINDOW", "3600", 1);
  setenv("GEOTORCH_STREAM_SLIDE", "600", 1);
  setenv("GEOTORCH_STREAM_QUEUE", "0", 1);      // clamped to 1
  setenv("GEOTORCH_STREAM_CLOSENESS", "5", 1);
  setenv("GEOTORCH_STREAM_PERIOD", "-2", 1);    // clamped to 0
  setenv("GEOTORCH_STREAM_RATE", "25000", 1);
  setenv("GEOTORCH_STREAM_TIMEOUT_US", "junk", 1);  // ignored
  const stream::StreamOptions opts = stream::StreamOptions::FromEnv();
  EXPECT_EQ(opts.window_sec, 3600);
  EXPECT_EQ(opts.slide_sec, 600);
  EXPECT_EQ(opts.EffectiveSlide(), 600);
  EXPECT_EQ(opts.queue, 1);
  EXPECT_EQ(opts.len_closeness, 5);
  EXPECT_EQ(opts.len_period, 0);
  EXPECT_EQ(opts.target_eps, 25000);
  EXPECT_EQ(opts.predict_timeout_us, 0);
}

// --- TaxiEventStream --------------------------------------------------------

TEST(TaxiStreamTest, DeterministicGivenSeed) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 30.0;
  config.duration_sec = 600;
  config.tick_sec = 60;
  config.seed = 7;
  synth::TaxiEventStream a(config);
  synth::TaxiEventStream b(config);
  std::vector<synth::TripRecord> ea;
  std::vector<synth::TripRecord> eb;
  while (a.NextTick(&ea)) {
  }
  while (b.NextTick(&eb)) {
  }
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_GT(ea.size(), 0u);
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].lon, eb[i].lon);
    EXPECT_EQ(ea[i].lat, eb[i].lat);
    EXPECT_EQ(ea[i].time_sec, eb[i].time_sec);
    EXPECT_EQ(ea[i].is_pickup, eb[i].is_pickup);
  }
}

TEST(TaxiStreamTest, TicksOrderedAndBounded) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 40.0;
  config.duration_sec = 300;
  config.tick_sec = 30;
  config.seed = 3;
  synth::TaxiEventStream s(config);
  int64_t tick_start = 0;
  int64_t total = 0;
  std::vector<synth::TripRecord> tick;
  while (true) {
    tick.clear();
    if (!s.NextTick(&tick)) break;
    for (const auto& t : tick) {
      // Ordered ACROSS ticks: every event of this tick is within it.
      EXPECT_GE(t.time_sec, tick_start);
      EXPECT_LT(t.time_sec, tick_start + config.tick_sec);
      EXPECT_TRUE(config.extent.Contains({t.lon, t.lat}));
    }
    total += static_cast<int64_t>(tick.size());
    tick_start += config.tick_sec;
  }
  EXPECT_EQ(tick_start, config.duration_sec);
  EXPECT_EQ(total, s.events_emitted());
  EXPECT_GT(total, 0);
  // Exhausted stream stays exhausted and appends nothing.
  tick.clear();
  EXPECT_FALSE(s.NextTick(&tick));
  EXPECT_TRUE(tick.empty());
}

TEST(TaxiStreamTest, AdapterConvertsRecordsToEvents) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 20.0;
  config.duration_sec = 120;
  config.tick_sec = 60;
  config.seed = 11;
  stream::TaxiEventSource source(config);
  std::vector<stream::Event> events;
  while (source.NextTick(&events)) {
  }
  EXPECT_EQ(static_cast<int64_t>(events.size()),
            source.stream().events_emitted());
  for (const auto& e : events) {
    EXPECT_TRUE(config.extent.Contains({e.lon, e.lat}));
    EXPECT_EQ(e.ingest_ns, 0);  // stamped later, at ring admission
  }
}

// --- WindowAggregator -------------------------------------------------------

stream::WindowAggregator::Options AggOpts(int64_t window, int64_t slide) {
  stream::WindowAggregator::Options opts;
  opts.window_sec = window;
  opts.slide_sec = slide;
  return opts;
}

TEST(AggregatorTest, TumblingWindowCountsAndChannels) {
  spatial::GridPartitioner grid(UnitExtent(), 2, 2);
  stream::WindowAggregator agg(grid, AggOpts(10, 10));
  std::vector<stream::ClosedWindow> closed;
  // Cell ids: (0.25,0.25)->0, (0.75,0.25)->1, (0.25,0.75)->2.
  agg.Add(At(0.25, 0.25, 1, /*is_pickup=*/true), &closed);
  agg.Add(At(0.25, 0.25, 5, /*is_pickup=*/false), &closed);
  agg.Add(At(0.75, 0.25, 9, /*is_pickup=*/true), &closed);
  ASSERT_TRUE(closed.empty());
  agg.Add(At(0.25, 0.75, 10, /*is_pickup=*/true), &closed);  // closes [0,10)
  ASSERT_EQ(closed.size(), 1u);
  const stream::ClosedWindow& w = closed[0];
  EXPECT_EQ(w.window_id, 0);
  EXPECT_EQ(w.start_sec, 0);
  EXPECT_EQ(w.end_sec, 10);
  EXPECT_EQ(w.events, 3);
  EXPECT_FALSE(w.partial);
  ASSERT_EQ(w.frame.shape(), (ts::Shape{2, 2, 2}));
  const float* f = w.frame.data();
  EXPECT_EQ(f[0], 2.0f);  // counts: cell 0
  EXPECT_EQ(f[1], 1.0f);  // cell 1
  EXPECT_EQ(f[2], 0.0f);
  EXPECT_EQ(f[3], 0.0f);
  EXPECT_EQ(f[4], 1.0f);  // pickups: cell 0
  EXPECT_EQ(f[5], 1.0f);  // cell 1
  EXPECT_EQ(f[6], 0.0f);
  EXPECT_EQ(f[7], 0.0f);
}

TEST(AggregatorTest, EmitsEmptyIntermediateWindows) {
  spatial::GridPartitioner grid(UnitExtent(), 2, 2);
  stream::WindowAggregator agg(grid, AggOpts(10, 10));
  std::vector<stream::ClosedWindow> closed;
  agg.Add(At(0.5, 0.5, 3), &closed);
  // A jump to bucket 3 closes buckets 0, 1, 2 — 1 and 2 empty.
  agg.Add(At(0.5, 0.5, 35), &closed);
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[0].window_id, 0);
  EXPECT_EQ(closed[0].events, 1);
  EXPECT_EQ(closed[1].window_id, 1);
  EXPECT_EQ(closed[1].events, 0);
  EXPECT_EQ(closed[2].window_id, 2);
  EXPECT_EQ(closed[2].events, 0);
  for (int i = 1; i <= 2; ++i) {
    const float* f = closed[i].frame.data();
    for (int64_t j = 0; j < closed[i].frame.numel(); ++j) {
      EXPECT_EQ(f[j], 0.0f);
    }
    EXPECT_EQ(closed[i].last_ingest_ns, 0);
  }
}

TEST(AggregatorTest, LateAndOutsideEventsCountedAndDropped) {
  spatial::GridPartitioner grid(UnitExtent(), 2, 2);
  stream::WindowAggregator agg(grid, AggOpts(10, 10));
  std::vector<stream::ClosedWindow> closed;
  agg.Add(At(0.5, 0.5, 12), &closed);  // closes window 0
  ASSERT_EQ(closed.size(), 1u);
  closed.clear();
  agg.Add(At(0.5, 0.5, 4), &closed);  // behind the sealed window: late
  EXPECT_TRUE(closed.empty());
  EXPECT_EQ(agg.late_events(), 1);
  agg.Add(At(5.0, 5.0, 13), &closed);  // outside the extent
  EXPECT_EQ(agg.dropped_outside(), 1);
  agg.Flush(&closed);
  ASSERT_EQ(closed.size(), 1u);
  // Neither dropped event reached a cell: only the in-extent t=12
  // pickup is in the flushed frame (1 in the count channel + 1 in the
  // pickup channel) — exactly the rows the batch path's extent filter
  // keeps.
  EXPECT_EQ(ts::SumAll(closed[0].frame), 2.0f);
  EXPECT_EQ(closed[0].events, 1);
}

TEST(AggregatorTest, SlidingWindowSumsTrailingBuckets) {
  spatial::GridPartitioner grid(UnitExtent(), 1, 1);
  // window 30, slide 10: each window = last 3 buckets.
  stream::WindowAggregator agg(grid, AggOpts(30, 10));
  std::vector<stream::ClosedWindow> closed;
  agg.Add(At(0.5, 0.5, 5), &closed);    // bucket 0: 1 event
  agg.Add(At(0.5, 0.5, 15), &closed);   // bucket 1: 2 events
  agg.Add(At(0.5, 0.5, 16), &closed);
  agg.Add(At(0.5, 0.5, 25), &closed);   // bucket 2: 1 event
  agg.Add(At(0.5, 0.5, 35), &closed);   // bucket 3: 1 event
  agg.Flush(&closed);
  ASSERT_EQ(closed.size(), 4u);
  EXPECT_EQ(closed[0].frame.data()[0], 1.0f);  // [.. ,10): bucket 0
  EXPECT_EQ(closed[1].frame.data()[0], 3.0f);  // buckets 0+1
  EXPECT_EQ(closed[2].frame.data()[0], 4.0f);  // buckets 0+1+2
  EXPECT_EQ(closed[3].frame.data()[0], 4.0f);  // buckets 1+2+3
  EXPECT_EQ(closed[3].start_sec, 10);
  EXPECT_EQ(closed[3].end_sec, 40);
  EXPECT_TRUE(closed[3].partial);
}

TEST(AggregatorTest, FlushIsIdempotentAndOnlyClosesDirtyBuckets) {
  spatial::GridPartitioner grid(UnitExtent(), 2, 2);
  stream::WindowAggregator agg(grid, AggOpts(10, 10));
  std::vector<stream::ClosedWindow> closed;
  agg.Flush(&closed);  // nothing absorbed yet
  EXPECT_TRUE(closed.empty());
  agg.Add(At(0.5, 0.5, 2), &closed);
  agg.Flush(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed[0].partial);
  agg.Flush(&closed);  // idempotent between events
  EXPECT_EQ(closed.size(), 1u);
}

TEST(AggregatorTest, HotCellIndexTracksActiveSetAndRebuildsOnChangeOnly) {
  spatial::GridPartitioner grid(UnitExtent(), 4, 4);
  stream::WindowAggregator agg(grid, AggOpts(10, 10));
  std::vector<stream::ClosedWindow> closed;
  EXPECT_EQ(agg.HotCellIndex(), nullptr);  // before the first epoch

  // Window 0 activates cells 0 and 5.
  agg.Add(At(0.1, 0.1, 1), &closed);
  agg.Add(At(0.3, 0.3, 2), &closed);
  agg.Add(At(0.1, 0.1, 10), &closed);  // closes window 0
  auto index = agg.HotCellIndex();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 2);
  EXPECT_EQ(agg.active_cells(), 2);
  const int64_t rebuilds_after_first = agg.index_rebuilds();
  EXPECT_GE(rebuilds_after_first, 1);

  // The epoch tree is the same tree a from-scratch bulk-load over the
  // active cells produces.
  std::vector<spatial::StrTree::Entry> entries;
  for (int64_t cell : {int64_t{0}, int64_t{5}}) {
    entries.push_back({grid.CellEnvelope(cell), cell});
  }
  spatial::StrTree reference(entries, 10);
  EXPECT_TRUE(index->IdenticalTo(reference));

  // A query strictly inside cell 0 hits only cell 0 (the full cell
  // envelope would also touch neighbors at the shared corner).
  std::vector<int64_t> hits =
      index->Query(spatial::Envelope(0.05, 0.05, 0.2, 0.2));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0);

  // Window 1 has the SAME active set (only cell 0 carried the event at
  // t=10... plus one at cell 5) — same set, no rebuild.
  agg.Add(At(0.3, 0.3, 11), &closed);
  agg.Add(At(0.1, 0.1, 20), &closed);  // closes window 1, active {0,5}
  EXPECT_EQ(agg.index_rebuilds(), rebuilds_after_first);
  EXPECT_EQ(agg.HotCellIndex().get(), index.get());  // shared, not rebuilt

  // Window 2 activates a different set — epoch changes, tree rebuilt.
  agg.Add(At(0.9, 0.9, 30), &closed);  // closes window 2, active {0}
  EXPECT_EQ(agg.index_rebuilds(), rebuilds_after_first + 1);
  EXPECT_EQ(agg.HotCellIndex()->size(), 1);
}

// --- OnlinePredictor --------------------------------------------------------

// Fabricates the ClosedWindow stream the aggregator would emit for a
// given (T, 2, H, W) series.
std::vector<stream::ClosedWindow> WindowsOf(const ts::Tensor& st) {
  std::vector<stream::ClosedWindow> windows;
  const int64_t t_len = st.shape()[0];
  for (int64_t t = 0; t < t_len; ++t) {
    stream::ClosedWindow w;
    w.window_id = t;
    w.frame = ts::Slice(st, 0, t, t + 1)
                  .Reshape({st.shape()[1], st.shape()[2], st.shape()[3]});
    windows.push_back(w);
  }
  return windows;
}

ts::Tensor RandomSeries(int64_t t_len, int64_t h, int64_t w,
                        uint64_t seed) {
  ts::Tensor st = ts::Tensor::Zeros({t_len, 2, h, w});
  Rng rng(seed);
  float* d = st.data();
  for (int64_t i = 0; i < st.numel(); ++i) {
    d[i] = static_cast<float>(rng.UniformInt(0, 50));
  }
  return st;
}

TEST(PredictorTest, StacksMirrorGridDatasetPeriodicalRepresentation) {
  const int64_t steps_per_day = 4;
  const int64_t t_len = 2 * 7 * steps_per_day + 5;
  ts::Tensor st = RandomSeries(t_len, 3, 2, /*seed=*/17);

  datasets::GridDataset dataset(st, steps_per_day);
  dataset.SetPeriodicalRepresentation(/*len_closeness=*/3,
                                      /*len_period=*/2, /*len_trend=*/2);
  ASSERT_GT(dataset.Size(), 0);

  serve::Fleet fleet;  // never submitted to in this test
  stream::OnlinePredictor::Options opts;
  opts.model = "unused";
  opts.len_closeness = 3;
  opts.len_period = 2;
  opts.len_trend = 2;
  opts.steps_per_day = steps_per_day;
  stream::OnlinePredictor predictor(&fleet, opts);

  // Walk every target the dataset covers and compare bitwise.
  const int64_t first = 2 * 7 * steps_per_day;  // dataset FirstTarget
  std::vector<stream::ClosedWindow> windows = WindowsOf(st);
  for (int64_t t = 0; t < t_len; ++t) {
    data::Sample sample = predictor.AssembleAfter(windows[t]);
    const int64_t target = t + 1;
    if (target < first || target >= t_len) continue;
    data::Sample expected = dataset.Get(target - first);
    EXPECT_TRUE(SameBits(sample.x, expected.x)) << "target " << target;
    ASSERT_EQ(sample.extras.size(), expected.extras.size());
    for (size_t e = 0; e < sample.extras.size(); ++e) {
      EXPECT_TRUE(SameBits(sample.extras[e], expected.extras[e]))
          << "target " << target << " extra " << e;
    }
  }
}

TEST(PredictorTest, ZeroPadsMissingHistoryDuringWarmup) {
  serve::Fleet fleet;
  stream::OnlinePredictor::Options opts;
  opts.model = "unused";
  opts.len_closeness = 3;
  opts.steps_per_day = 4;
  stream::OnlinePredictor predictor(&fleet, opts);

  stream::ClosedWindow w;
  w.window_id = 0;
  w.frame = ts::Tensor::Full({2, 2, 2}, 7.0f);
  data::Sample sample = predictor.AssembleAfter(w);
  ASSERT_EQ(sample.x.shape(), (ts::Shape{6, 2, 2}));
  const float* d = sample.x.data();
  for (int64_t i = 0; i < 16; ++i) EXPECT_EQ(d[i], 0.0f);  // padding
  for (int64_t i = 16; i < 24; ++i) EXPECT_EQ(d[i], 7.0f);  // window 0
}

// --- Pipeline ---------------------------------------------------------------

serve::FleetOptions FastFleet(int replicas) {
  serve::FleetOptions opts;
  opts.replicas = replicas;
  opts.engine.max_batch = 4;
  opts.engine.max_delay_us = 100;
  opts.engine.max_queue = 256;
  opts.engine.warmup_batches = 0;
  return opts;
}

serve::SnapshotFactory EchoFactory() {
  return [] {
    serve::ModelSnapshot snap;
    snap.forward = [](const data::Batch& batch) { return batch.x; };
    return snap;
  };
}

stream::StreamOptions SmallPipelineOptions() {
  stream::StreamOptions opts;
  opts.window_sec = 600;
  opts.slide_sec = 0;  // tumbling
  opts.queue = 1024;
  opts.window_queue = 8;
  opts.len_closeness = 3;
  opts.steps_per_day = 4;
  return opts;
}

TEST(PipelineTest, EndToEndLosslessDrainOnSourceEnd) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 20.0;
  config.duration_sec = 3600;
  config.tick_sec = 60;
  config.seed = 5;
  stream::TaxiEventSource source(config);

  const stream::StreamOptions opts = SmallPipelineOptions();
  spatial::GridPartitioner grid(config.extent, 4, 4);
  serve::Fleet fleet(FastFleet(2));
  ASSERT_TRUE(fleet
                  .AddModel("echo", EchoFactory(),
                            serve::SampleSpec{
                                {opts.len_closeness * 2, 4, 4}, {}})
                  .ok());

  stream::Pipeline pipeline(&source, &fleet, grid, "echo", opts);
  pipeline.Start();
  ASSERT_TRUE(pipeline.WaitFinished(30000));
  pipeline.Stop();

  const stream::PipelineStats stats = pipeline.stats();
  EXPECT_GT(stats.events_ingested, 0);
  // Every admitted event was aggregated.
  EXPECT_EQ(stats.events_processed, stats.events_ingested);
  // 3600s of events at 600s tumbling windows: 5 full closes plus the
  // final partial via drain Flush.
  EXPECT_EQ(stats.windows_closed, 6);
  // Lossless drain: every closed window got exactly one prediction.
  EXPECT_EQ(stats.windows_closed,
            stats.predictions_ok + stats.predictions_failed);
  EXPECT_EQ(stats.predictions_failed, 0);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.window_queue_depth, 0);
  EXPECT_EQ(stats.late_events, 0);
  EXPECT_GT(stats.active_cells, 0);
  EXPECT_GE(stats.index_rebuilds, 1);
  // Staleness was measured for every prediction.
  EXPECT_EQ(static_cast<int64_t>(
                pipeline.predictor().StalenessSamplesUs().size()),
            stats.windows_closed);
}

TEST(PipelineTest, StopMidStreamDrainsEverythingAdmitted) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 50.0;
  config.duration_sec = 365LL * 24 * 3600;  // effectively unbounded
  config.tick_sec = 60;
  config.seed = 9;
  stream::TaxiEventSource source(config);

  const stream::StreamOptions opts = SmallPipelineOptions();
  spatial::GridPartitioner grid(config.extent, 4, 4);
  serve::Fleet fleet(FastFleet(1));
  ASSERT_TRUE(fleet
                  .AddModel("echo", EchoFactory(),
                            serve::SampleSpec{
                                {opts.len_closeness * 2, 4, 4}, {}})
                  .ok());

  stream::Pipeline pipeline(&source, &fleet, grid, "echo", opts);
  pipeline.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pipeline.Stop();  // blocks until the drain completed

  const stream::PipelineStats stats = pipeline.stats();
  EXPECT_FALSE(pipeline.Finished());  // stopped, not exhausted
  EXPECT_EQ(stats.events_processed, stats.events_ingested);
  EXPECT_EQ(stats.windows_closed,
            stats.predictions_ok + stats.predictions_failed);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.window_queue_depth, 0);
}

TEST(PipelineTest, RingSmallerThanATickDrainsLosslessly) {
  // Ticks of hundreds of events into a 16-event ring: every tick's
  // PushAll waits for room several times, and a mid-stream Stop lands
  // inside one. The accounting must still cover exactly what was
  // admitted, on both a natural end and a Stop.
  stream::StreamOptions opts = SmallPipelineOptions();
  opts.queue = 16;
  for (const bool stop_mid_stream : {false, true}) {
    SCOPED_TRACE(stop_mid_stream ? "mid-stream Stop" : "source end");
    synth::TaxiStreamConfig config;
    config.events_per_sec = 10.0;  // 60 s ticks of 150-1,700 events
    config.duration_sec = stop_mid_stream ? 365LL * 24 * 3600 : 3600;
    config.tick_sec = 60;
    config.seed = 21;
    stream::TaxiEventSource source(config);

    spatial::GridPartitioner grid(config.extent, 4, 4);
    serve::Fleet fleet(FastFleet(1));
    ASSERT_TRUE(fleet
                    .AddModel("echo", EchoFactory(),
                              serve::SampleSpec{
                                  {opts.len_closeness * 2, 4, 4}, {}})
                    .ok());

    stream::Pipeline pipeline(&source, &fleet, grid, "echo", opts);
    pipeline.Start();
    if (stop_mid_stream) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else {
      ASSERT_TRUE(pipeline.WaitFinished(30000));
    }
    pipeline.Stop();

    const stream::PipelineStats stats = pipeline.stats();
    EXPECT_EQ(pipeline.Finished(), !stop_mid_stream);
    EXPECT_GT(stats.events_ingested, 0);
    EXPECT_EQ(stats.events_processed, stats.events_ingested);
    EXPECT_EQ(stats.windows_closed,
              stats.predictions_ok + stats.predictions_failed);
    EXPECT_EQ(stats.queue_depth, 0);
    EXPECT_EQ(stats.window_queue_depth, 0);
    if (!stop_mid_stream) {
      EXPECT_EQ(stats.events_ingested, source.stream().events_emitted());
      EXPECT_EQ(stats.windows_closed, 6);  // 3600 s of 600 s windows
    }
  }
}

TEST(PipelineTest, PredictionDeadlineBoundsStalenessWithoutLosingWindows) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 10.0;
  config.duration_sec = 2400;
  config.tick_sec = 60;
  config.seed = 13;
  stream::TaxiEventSource source(config);

  stream::StreamOptions opts = SmallPipelineOptions();
  opts.predict_timeout_us = 500;  // far below the forward's 20ms
  spatial::GridPartitioner grid(config.extent, 4, 4);

  serve::FleetOptions fleet_opts = FastFleet(1);
  fleet_opts.engine.max_batch = 1;
  serve::Fleet fleet(fleet_opts);
  auto slow_factory = [] {
    serve::ModelSnapshot snap;
    snap.forward = [](const data::Batch& batch) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return batch.x;
    };
    return snap;
  };
  ASSERT_TRUE(fleet
                  .AddModel("slow", slow_factory,
                            serve::SampleSpec{
                                {opts.len_closeness * 2, 4, 4}, {}})
                  .ok());

  stream::Pipeline pipeline(&source, &fleet, grid, "slow", opts);
  pipeline.Start();
  ASSERT_TRUE(pipeline.WaitFinished(30000));
  pipeline.Stop();

  const stream::PipelineStats stats = pipeline.stats();
  // Deadline expiries are failures the accounting still covers — the
  // drain loses no window even when the model cannot keep up.
  EXPECT_EQ(stats.windows_closed,
            stats.predictions_ok + stats.predictions_failed);
  EXPECT_GT(stats.predictions_failed, 0);
}

}  // namespace
