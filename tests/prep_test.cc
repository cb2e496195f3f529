#include "prep/st_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baseline/geopandas_like.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "prep/df_to_torch.h"
#include "prep/raster_processing.h"
#include "raster/ops.h"
#include "spatial/grid.h"
#include "stream/aggregator.h"
#include "stream/event.h"
#include "synth/taxi.h"
#include "tensor/ops.h"
#include "tests/temp_path.h"

namespace geotorch::prep {
namespace {

namespace ts = ::geotorch::tensor;

df::DataFrame SmallTripFrame(int partitions = 3) {
  synth::TaxiTripConfig config;
  config.num_records = 4000;
  config.duration_sec = 2 * 86400;
  config.seed = 21;
  return synth::TripsToDataFrame(synth::GenerateTaxiTrips(config),
                                 partitions);
}

TEST(SpacePartitionTest, ComputeExtentCoversAllPoints) {
  df::DataFrame frame =
      STManager::AddSpatialPoints(SmallTripFrame(), "lat", "lon", "point");
  spatial::Envelope extent =
      SpacePartition::ComputeExtent(frame, "point");
  const int col = frame.schema().FieldIndex("point");
  for (int pi = 0; pi < frame.num_partitions(); ++pi) {
    for (const auto& p : frame.partition(pi).column(col).points()) {
      EXPECT_TRUE(extent.Contains(p));
    }
  }
}

TEST(STManagerTest, AddSpatialPointsBuildsGeometry) {
  df::DataFrame frame = SmallTripFrame();
  df::DataFrame with_points =
      STManager::AddSpatialPoints(frame, "lat", "lon", "point");
  const int pt = with_points.schema().FieldIndex("point");
  const int lon = with_points.schema().FieldIndex("lon");
  const int lat = with_points.schema().FieldIndex("lat");
  const df::Partition& part = with_points.partition(0);
  for (int64_t r = 0; r < std::min<int64_t>(part.num_rows(), 50); ++r) {
    EXPECT_EQ(part.column(pt).points()[r].x, part.column(lon).doubles()[r]);
    EXPECT_EQ(part.column(pt).points()[r].y, part.column(lat).doubles()[r]);
  }
}

TEST(STManagerTest, GridAggregationMatchesManualCount) {
  synth::TaxiTripConfig config;
  config.num_records = 3000;
  config.duration_sec = 86400;
  config.seed = 9;
  auto trips = synth::GenerateTaxiTrips(config);
  df::DataFrame frame = synth::TripsToDataFrame(trips, 4);
  df::DataFrame with_points =
      STManager::AddSpatialPoints(frame, "lat", "lon", "point");

  StGridSpec spec;
  spec.partitions_x = 6;
  spec.partitions_y = 8;
  spec.step_duration_sec = 3600;
  spec.extent = config.extent;
  StGridResult result = STManager::GetStGridDataFrame(with_points, spec);

  // Manual aggregation with the same grid.
  spatial::GridPartitioner grid(config.extent, 6, 8);
  std::map<std::pair<int64_t, int64_t>, int64_t> manual;
  for (const auto& t : trips) {
    auto cell = grid.CellOf({t.lon, t.lat});
    ASSERT_TRUE(cell.has_value());
    ++manual[{*cell, t.time_sec / 3600}];
  }
  EXPECT_EQ(result.frame.NumRows(),
            static_cast<int64_t>(manual.size()));

  df::DataFrame sorted = result.frame.SortByInt64("cell_id");
  const int cell_idx = sorted.schema().FieldIndex("cell_id");
  const int time_idx = sorted.schema().FieldIndex("time_id");
  const int count_idx = sorted.schema().FieldIndex("count");
  const df::Partition& part = sorted.partition(0);
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    const auto key = std::make_pair(part.column(cell_idx).int64s()[r],
                                    part.column(time_idx).int64s()[r]);
    EXPECT_EQ(part.column(count_idx).int64s()[r], manual[key]);
  }
}

TEST(STManagerTest, TensorScatterMatchesFrame) {
  df::DataFrame with_points =
      STManager::AddSpatialPoints(SmallTripFrame(), "lat", "lon", "point");
  StGridSpec spec;
  spec.partitions_x = 4;
  spec.partitions_y = 5;
  spec.step_duration_sec = 7200;
  StGridResult result = STManager::GetStGridDataFrame(with_points, spec);
  ts::Tensor tensor = STManager::GetStGridTensor(result, {"count"});
  EXPECT_EQ(tensor.shape(),
            (ts::Shape{result.num_timesteps, 1, 5, 4}));
  // Total mass equals the number of in-extent records.
  EXPECT_EQ(static_cast<int64_t>(ts::SumAll(tensor)),
            with_points.NumRows());
  // Spot-check one frame cell against the frame rows.
  const int cell_idx = result.frame.schema().FieldIndex("cell_id");
  const int time_idx = result.frame.schema().FieldIndex("time_id");
  const int count_idx = result.frame.schema().FieldIndex("count");
  const df::Partition& part = result.frame.partition(0);
  for (int64_t r = 0; r < std::min<int64_t>(20, part.num_rows()); ++r) {
    const int64_t cell = part.column(cell_idx).int64s()[r];
    const int64_t time = part.column(time_idx).int64s()[r];
    EXPECT_EQ(tensor.at({time, 0, cell / 4, cell % 4}),
              static_cast<float>(part.column(count_idx).int64s()[r]));
  }
}

TEST(STManagerTest, MultiChannelAggregation) {
  df::DataFrame frame = SmallTripFrame();
  df::DataFrame with_points =
      STManager::AddSpatialPoints(frame, "lat", "lon", "point");
  const int pickup_idx = with_points.schema().FieldIndex("is_pickup");
  df::DataFrame channels =
      with_points
          .WithColumn("pu", df::DataType::kDouble,
                      [pickup_idx](const df::RowView& row) -> df::Value {
                        return static_cast<double>(row.GetInt64(pickup_idx));
                      })
          .WithColumn("do", df::DataType::kDouble,
                      [pickup_idx](const df::RowView& row) -> df::Value {
                        return 1.0 -
                               static_cast<double>(row.GetInt64(pickup_idx));
                      });
  StGridSpec spec;
  spec.partitions_x = 3;
  spec.partitions_y = 3;
  spec.step_duration_sec = 86400;
  spec.aggs = {{df::AggKind::kSum, "pu", "pickups"},
               {df::AggKind::kSum, "do", "dropoffs"},
               {df::AggKind::kCount, "", "total"}};
  StGridResult result = STManager::GetStGridDataFrame(channels, spec);
  ts::Tensor t =
      STManager::GetStGridTensor(result, {"pickups", "dropoffs"});
  EXPECT_EQ(t.size(1), 2);
  // pickups + dropoffs == total count.
  ts::Tensor both = ts::Add(ts::Slice(t, 1, 0, 1), ts::Slice(t, 1, 1, 2));
  EXPECT_EQ(static_cast<int64_t>(ts::SumAll(both)), frame.NumRows());
}

// GetStGridDataFrame builds its narrow frame in one pass; it must equal
// the public-op chain it replaced, bitwise and partition for partition.
df::DataFrame ComposedStGrid(const df::DataFrame& frame,
                             const StGridSpec& spec,
                             const spatial::Envelope& extent) {
  const spatial::GridPartitioner grid =
      SpacePartition::BuildGrid(extent, spec.partitions_x, spec.partitions_y);
  const int time_col = frame.schema().FieldIndex(spec.time_column);
  df::DataFrame with_time =
      STManager::AssignCellColumn(frame, grid, spec.geometry_column,
                                  "cell_id")
          .WithColumn("time_id", df::DataType::kInt64,
                      [time_col, &spec](const df::RowView& row) -> df::Value {
                        return row.GetInt64(time_col) /
                               spec.step_duration_sec;
                      });
  std::vector<df::AggSpec> aggs = spec.aggs;
  if (aggs.empty()) aggs.push_back({df::AggKind::kCount, "", "count"});
  std::vector<std::string> needed = {"cell_id", "time_id"};
  for (const auto& a : aggs) {
    if (a.kind != df::AggKind::kCount &&
        std::find(needed.begin(), needed.end(), a.column) == needed.end()) {
      needed.push_back(a.column);
    }
  }
  df::DataFrame narrow = with_time.Select(needed);
  const int cell_idx = narrow.schema().FieldIndex("cell_id");
  df::DataFrame inside = narrow.Filter([cell_idx](const df::RowView& row) {
    return row.GetInt64(cell_idx) >= 0;
  });
  const int shards = std::max(inside.num_partitions(),
                              std::max(1, ThreadPool::Global().num_threads()));
  return inside.GroupByAgg({"cell_id", "time_id"}, aggs, shards);
}

void ExpectFramesBitwiseEqual(const df::DataFrame& got,
                              const df::DataFrame& want) {
  ASSERT_EQ(got.schema().fields(), want.schema().fields());
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  for (int pi = 0; pi < got.num_partitions(); ++pi) {
    const df::Partition& g = got.partition(pi);
    const df::Partition& w = want.partition(pi);
    df::Partition::Pin gpin(g);
    df::Partition::Pin wpin(w);
    ASSERT_EQ(g.num_rows(), w.num_rows()) << "partition " << pi;
    for (int c = 0; c < g.num_columns(); ++c) {
      if (g.column_type(c) == df::DataType::kInt64) {
        const auto gv = g.column(c).int64s();
        const auto wv = w.column(c).int64s();
        EXPECT_TRUE(std::equal(gv.begin(), gv.end(), wv.begin()))
            << "partition " << pi << " column " << c;
      } else {
        const auto gv = g.column(c).doubles();
        const auto wv = w.column(c).doubles();
        EXPECT_EQ(std::memcmp(gv.data(), wv.data(), gv.size_bytes()), 0)
            << "partition " << pi << " column " << c;
      }
    }
  }
}

TEST(STManagerTest, StGridFrameEqualsComposedOpChain) {
  synth::TaxiTripConfig config;
  config.num_records = 6000;
  config.duration_sec = 3 * 86400;
  config.seed = 33;
  const auto trips = synth::GenerateTaxiTrips(config);
  // An explicit extent covering the lower-left part of the data, so a
  // share of the points falls outside and is dropped.
  const spatial::Envelope inner(
      config.extent.min_x(), config.extent.min_y(),
      0.5 * (config.extent.min_x() + config.extent.max_x()),
      0.6 * config.extent.min_y() + 0.4 * config.extent.max_y());
  for (int partitions : {1, 3, 5}) {
    df::DataFrame frame = STManager::AddSpatialPoints(
        synth::TripsToDataFrame(trips, partitions), "lat", "lon", "point");
    struct Case {
      std::vector<df::AggSpec> aggs;
      std::optional<spatial::Envelope> extent;
    };
    const std::vector<Case> cases = {
        // Count only (the default), points outside an explicit extent.
        {{}, inner},
        {{{df::AggKind::kCount, "", "n"}, {df::AggKind::kCount, "", "m"}},
         std::nullopt},
        // Two aggregations over one column, one over time_id.
        {{{df::AggKind::kSum, "lat", "lat_sum"},
          {df::AggKind::kVariance, "lat", "lat_var"},
          {df::AggKind::kMax, "time_id", "t_max"},
          {df::AggKind::kMin, "time", "first_s"},
          {df::AggKind::kMean, "is_pickup", "pu"}},
         inner},
        // An aggregation over cell_id, and time_id before any other.
        {{{df::AggKind::kMin, "time_id", "t_min"},
          {df::AggKind::kSum, "cell_id", "cells"},
          {df::AggKind::kCount, "", "n"}},
         std::nullopt},
    };
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      SCOPED_TRACE("partitions " + std::to_string(partitions) + " case " +
                   std::to_string(ci));
      StGridSpec spec;
      spec.partitions_x = 7;
      spec.partitions_y = 5;
      spec.step_duration_sec = 5400;
      spec.extent = cases[ci].extent;
      spec.aggs = cases[ci].aggs;
      const StGridResult result = STManager::GetStGridDataFrame(frame, spec);
      ASSERT_GT(result.frame.NumRows(), 0);
      ExpectFramesBitwiseEqual(
          result.frame, ComposedStGrid(frame, spec, result.extent));
    }
  }
}

TEST(STManagerTest, CoarsenGridSumsBlocks) {
  ts::Tensor fine = ts::Tensor::Ones({2, 1, 4, 4});
  ts::Tensor coarse = STManager::CoarsenGrid(fine, 2);
  EXPECT_EQ(coarse.shape(), (ts::Shape{2, 1, 2, 2}));
  EXPECT_EQ(coarse.flat(0), 4.0f);
  EXPECT_EQ(ts::SumAll(coarse), ts::SumAll(fine));
}

TEST(BaselineCrossCheck, BaselineMatchesPrepModuleTensor) {
  // The GeoPandas-like baseline and the distributed module must produce
  // the identical spatiotemporal tensor from the same trips.
  synth::TaxiTripConfig config;
  config.num_records = 3000;
  config.duration_sec = 86400;
  config.seed = 33;
  auto trips = synth::GenerateTaxiTrips(config);

  baseline::BaselineOptions options;
  options.partitions_x = 4;
  options.partitions_y = 4;
  options.step_duration_sec = 3600;
  baseline::BaselineOutcome outcome =
      baseline::GeoPandasLikePrepare(trips, options);
  ASSERT_FALSE(outcome.out_of_memory);

  df::DataFrame frame = synth::TripsToDataFrame(trips, 3);
  df::DataFrame with_points =
      STManager::AddSpatialPoints(frame, "lat", "lon", "point");
  const int pickup_idx = with_points.schema().FieldIndex("is_pickup");
  df::DataFrame channels =
      with_points
          .WithColumn("pu", df::DataType::kDouble,
                      [pickup_idx](const df::RowView& row) -> df::Value {
                        return static_cast<double>(row.GetInt64(pickup_idx));
                      })
          .WithColumn("do", df::DataType::kDouble,
                      [pickup_idx](const df::RowView& row) -> df::Value {
                        return 1.0 -
                               static_cast<double>(row.GetInt64(pickup_idx));
                      });
  StGridSpec spec;
  spec.partitions_x = 4;
  spec.partitions_y = 4;
  spec.step_duration_sec = 3600;
  // The baseline derives its extent from the data; do the same here.
  spec.aggs = {{df::AggKind::kSum, "pu", "pickups"},
               {df::AggKind::kSum, "do", "dropoffs"}};
  StGridResult result = STManager::GetStGridDataFrame(channels, spec);
  ts::Tensor ours =
      STManager::GetStGridTensor(result, {"pickups", "dropoffs"});

  ASSERT_EQ(ours.shape(), outcome.st_tensor.shape());
  EXPECT_TRUE(ts::AllClose(ours, outcome.st_tensor, 0.0f, 0.0f))
      << "prep module and baseline disagree";
}

TEST(BaselineTest, OomGuardTrips) {
  synth::TaxiTripConfig config;
  config.num_records = 2000;
  config.seed = 1;
  auto trips = synth::GenerateTaxiTrips(config);
  baseline::BaselineOptions options;
  options.memory_limit_bytes = 10000;  // absurdly small
  baseline::BaselineOutcome outcome =
      baseline::GeoPandasLikePrepare(trips, options);
  EXPECT_TRUE(outcome.out_of_memory);
  EXPECT_GT(outcome.peak_logical_bytes, 10000);
}

TEST(RasterProcessingTest, ParallelNdiMatchesDirectOp) {
  std::vector<raster::RasterImage> images;
  Rng rng(2);
  for (int i = 0; i < 5; ++i) {
    raster::RasterImage img(8, 8, 3);
    for (auto& v : img.data()) v = static_cast<float>(rng.Uniform(0.1, 1));
    images.push_back(std::move(img));
  }
  auto transformed =
      RasterProcessing::AppendNormalizedDifferenceIndex(images, 0, 1);
  ASSERT_EQ(transformed.size(), 5u);
  for (size_t i = 0; i < images.size(); ++i) {
    raster::RasterImage direct =
        raster::AppendNormalizedDifferenceIndex(images[i], 0, 1);
    EXPECT_EQ(transformed[i].bands(), 4);
    EXPECT_EQ(transformed[i].data(), direct.data());
  }
}

TEST(RasterProcessingTest, WriteLoadRoundTrip) {
  std::vector<raster::RasterImage> images;
  for (int i = 0; i < 3; ++i) {
    raster::RasterImage img(4, 4, 2);
    img.at(0, 0, 0) = static_cast<float>(i);
    images.push_back(std::move(img));
  }
  const ScopedTempPath dir("prep_test_images");
  std::filesystem::create_directories(dir.str());
  auto paths = RasterProcessing::WriteGeotiffImages(images, dir, "img_");
  ASSERT_TRUE(paths.ok());
  auto loaded = RasterProcessing::LoadGeotiffImages(*paths);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ((*loaded)[2].at(0, 0, 0), 2.0f);
}

TEST(DfToTorchTest, BatchesAllRows) {
  df::DataFrame frame =
      df::DataFrame::FromColumns(
          {{"a", df::Column::FromDoubles({1, 2, 3, 4, 5})},
           {"b", df::Column::FromInt64s({10, 20, 30, 40, 50})},
           {"label", df::Column::FromInt64s({0, 1, 0, 1, 0})}})
          .Repartition(2);
  DfToTorch::Options options;
  options.feature_columns = {"a", "b"};
  options.label_column = "label";
  options.batch_size = 2;
  DfToTorch converter(frame, options);
  EXPECT_EQ(converter.num_rows(), 5);

  ts::Tensor x;
  ts::Tensor y;
  int64_t rows = 0;
  int batches = 0;
  double label_sum = 0.0;
  while (converter.NextBatch(&x, &y)) {
    EXPECT_EQ(x.size(1), 2);
    EXPECT_EQ(x.size(0), y.size(0));
    rows += x.size(0);
    ++batches;
    label_sum += ts::SumAll(y);
  }
  EXPECT_EQ(rows, 5);
  EXPECT_EQ(batches, 3);
  EXPECT_EQ(label_sum, 2.0);  // two 1-labels

  // Reset allows a second pass.
  converter.Reset();
  EXPECT_TRUE(converter.NextBatch(&x, &y));
}

TEST(DfToTorchTest, TransformApplied) {
  df::DataFrame frame = df::DataFrame::FromColumns(
      {{"a", df::Column::FromDoubles({1, 2, 3})}});
  DfToTorch::Options options;
  options.feature_columns = {"a"};
  options.batch_size = 10;
  options.transform = [](const ts::Tensor& x) {
    return ts::MulScalar(x, 10.0f);
  };
  DfToTorch converter(frame, options);
  ts::Tensor x;
  ts::Tensor y;
  ASSERT_TRUE(converter.NextBatch(&x, &y));
  EXPECT_EQ(x.flat(0), 10.0f);
  EXPECT_EQ(x.flat(2), 30.0f);
}

TEST(DfToTorchTest, ToDatasetMaterializes) {
  df::DataFrame frame =
      df::DataFrame::FromColumns(
          {{"a", df::Column::FromDoubles({1, 2, 3, 4})},
           {"y", df::Column::FromDoubles({0.1, 0.2, 0.3, 0.4})}})
          .Repartition(2);
  DfToTorch::Options options;
  options.feature_columns = {"a"};
  options.label_column = "y";
  DfToTorch converter(frame, options);
  auto dataset = converter.ToDataset();
  EXPECT_EQ(dataset->Size(), 4);
  // All labels present regardless of partition order.
  double sum = 0.0;
  for (int64_t i = 0; i < 4; ++i) sum += dataset->Get(i).y.flat(0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

// --- Streaming incremental grid vs. batch rebuild ---------------------------
//
// The window aggregator's core claim (DESIGN.md §14): the incrementally
// maintained ST grid is BITWISE equal to a from-scratch batch rebuild
// through STManager at every window boundary — empty windows, final
// partial flush, out-of-order-within-tick arrival, and out-of-extent
// events included. Integer accumulation is order-free and exact in
// float, so equality is exact, not approximate.

namespace stream = ::geotorch::stream;

// Batch reference: all `trips` through the batch preprocessing path at
// `step` resolution — (T, 2, H, W) with channel 0 = count, channel 1 =
// sum(is_pickup), T = last nonempty time slot + 1.
ts::Tensor BatchGridTensor(const std::vector<synth::TripRecord>& trips,
                           const spatial::Envelope& extent, int nx, int ny,
                           int64_t step) {
  df::DataFrame frame = synth::TripsToDataFrame(trips, 3);
  df::DataFrame with_points =
      STManager::AddSpatialPoints(frame, "lat", "lon", "point");
  StGridSpec spec;
  spec.partitions_x = nx;
  spec.partitions_y = ny;
  spec.step_duration_sec = step;
  spec.extent = extent;
  spec.aggs = {{df::AggKind::kCount, "", "count"},
               {df::AggKind::kSum, "is_pickup", "pickups"}};
  StGridResult result = STManager::GetStGridDataFrame(with_points, spec);
  return STManager::GetStGridTensor(result, {"count", "pickups"});
}

// True when `frame` equals batch frame `t` bit for bit (frames past the
// batch tensor's last nonempty slot must be all-zero).
::testing::AssertionResult FrameMatchesBatch(const ts::Tensor& frame,
                                             const ts::Tensor& batch,
                                             int64_t t) {
  const int64_t per_frame = frame.numel();
  const float* got = frame.data();
  if (t < batch.shape()[0]) {
    const float* want = batch.data() + t * per_frame;
    if (std::memcmp(got, want, per_frame * sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "window " << t << " diverges from the batch rebuild";
    }
    return ::testing::AssertionSuccess();
  }
  for (int64_t i = 0; i < per_frame; ++i) {
    if (got[i] != 0.0f) {
      return ::testing::AssertionFailure()
             << "window " << t << " past the batch horizon is nonzero";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(StreamBatchEquivalenceTest, TumblingBitwiseEqualAtEveryBoundary) {
  const spatial::Envelope extent(0.0, 0.0, 1.0, 1.0);
  const int nx = 5;
  const int ny = 4;
  const int64_t window = 100;
  spatial::GridPartitioner grid(extent, nx, ny);

  // Hand-built tick stream: ticks of 50s, events unordered WITHIN each
  // tick, buckets 3-4 left empty, plus out-of-extent strays that both
  // paths must drop identically.
  geotorch::Rng rng(41);
  std::vector<std::vector<synth::TripRecord>> ticks;
  for (int64_t tick_start = 0; tick_start < 800; tick_start += 50) {
    std::vector<synth::TripRecord> tick;
    const int64_t bucket = tick_start / window;
    if (bucket == 3 || bucket == 4) {
      ticks.push_back(tick);  // empty windows mid-stream
      continue;
    }
    const int64_t n = rng.UniformInt(5, 30);
    for (int64_t i = 0; i < n; ++i) {
      synth::TripRecord r;
      const bool outside = rng.Bernoulli(0.1);
      r.lon = outside ? 2.0 + rng.Uniform() : rng.Uniform();
      r.lat = rng.Uniform();
      // Unordered within the tick; ordered across ticks.
      r.time_sec = rng.UniformInt(tick_start, tick_start + 49);
      r.is_pickup = rng.Bernoulli(0.5) ? 1 : 0;
      tick.push_back(r);
    }
    ticks.push_back(tick);
  }

  stream::WindowAggregator::Options opts;
  opts.window_sec = window;
  opts.slide_sec = window;
  stream::WindowAggregator agg(grid, opts);

  std::vector<synth::TripRecord> fed;   // everything the stream has seen
  std::vector<stream::ClosedWindow> closed;
  int64_t compared = 0;
  auto compare_closed = [&] {
    for (const stream::ClosedWindow& w : closed) {
      // Rebuild from scratch with exactly the events at time < end_sec
      // — everything this and all earlier windows cover.
      std::vector<synth::TripRecord> upto;
      for (const auto& r : fed) {
        if (r.time_sec < w.end_sec) upto.push_back(r);
      }
      if (upto.empty()) {
        EXPECT_EQ(ts::SumAll(w.frame), 0.0f);
        ++compared;
        continue;
      }
      ts::Tensor batch = BatchGridTensor(upto, extent, nx, ny, window);
      EXPECT_TRUE(FrameMatchesBatch(w.frame, batch, w.window_id));
      ++compared;
    }
    closed.clear();
  };

  for (const auto& tick : ticks) {
    for (const auto& r : tick) {
      stream::Event e;
      e.lon = r.lon;
      e.lat = r.lat;
      e.time_sec = r.time_sec;
      e.is_pickup = r.is_pickup != 0;
      agg.Add(e, &closed);
      fed.push_back(r);
      compare_closed();
    }
  }
  agg.Flush(&closed);  // the final partial window must match too
  compare_closed();

  EXPECT_EQ(agg.late_events(), 0);
  EXPECT_GT(agg.dropped_outside(), 0);  // the strays exercised the filter
  EXPECT_EQ(compared, agg.windows_closed());
  EXPECT_GE(compared, 8);  // covered every bucket incl. the empty ones
}

TEST(StreamBatchEquivalenceTest, SlidingTaxiStreamMatchesBatchAtEverySlide) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 2.0;
  config.duration_sec = 4 * 3600;
  config.tick_sec = 600;
  config.seed = 23;
  synth::TaxiEventStream source(config);

  const int nx = 6;
  const int ny = 5;
  const int64_t slide = 1800;
  const int64_t window = 3600;  // every window spans 2 slide buckets
  spatial::GridPartitioner grid(config.extent, nx, ny);
  stream::WindowAggregator::Options opts;
  opts.window_sec = window;
  opts.slide_sec = slide;
  stream::WindowAggregator agg(grid, opts);

  std::vector<synth::TripRecord> fed;
  std::vector<stream::ClosedWindow> closed;
  std::vector<synth::TripRecord> tick;
  int64_t compared = 0;
  while (true) {
    tick.clear();
    const bool more = source.NextTick(&tick);
    for (const auto& r : tick) {
      stream::Event e;
      e.lon = r.lon;
      e.lat = r.lat;
      e.time_sec = r.time_sec;
      e.is_pickup = r.is_pickup != 0;
      agg.Add(e, &closed);
      fed.push_back(r);
    }
    if (!more) agg.Flush(&closed);
    for (const stream::ClosedWindow& w : closed) {
      // Sliding reference: the batch rebuild at `slide` resolution over
      // events at time < end_sec, with the window's trailing buckets
      // summed in int64 (every batch value is an exact integer) and
      // cast to float — the same arithmetic the aggregator commits to.
      std::vector<synth::TripRecord> upto;
      for (const auto& r : fed) {
        if (r.time_sec < w.end_sec) upto.push_back(r);
      }
      ASSERT_FALSE(upto.empty());
      ts::Tensor batch = BatchGridTensor(upto, config.extent, nx, ny, slide);
      const int64_t per_frame = 2LL * ny * nx;
      std::vector<int64_t> want(per_frame, 0);
      for (int64_t b = w.start_sec / slide; b <= w.window_id; ++b) {
        if (b >= batch.shape()[0]) continue;
        const float* src = batch.data() + b * per_frame;
        for (int64_t i = 0; i < per_frame; ++i) {
          want[i] += static_cast<int64_t>(src[i]);
        }
      }
      const float* got = w.frame.data();
      for (int64_t i = 0; i < per_frame; ++i) {
        ASSERT_EQ(got[i], static_cast<float>(want[i]))
            << "window " << w.window_id << " cell " << i;
      }
      ++compared;
    }
    closed.clear();
    if (!more) break;
  }
  EXPECT_EQ(compared, agg.windows_closed());
  EXPECT_GE(compared, config.duration_sec / slide);
  EXPECT_EQ(agg.late_events(), 0);
}

}  // namespace
}  // namespace geotorch::prep
