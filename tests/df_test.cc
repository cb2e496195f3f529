#include "df/dataframe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "core/rng.h"
#include "df/csv.h"
#include "obs/obs.h"
#include "tests/temp_path.h"

namespace geotorch::df {
namespace {

DataFrame SampleFrame() {
  return DataFrame::FromColumns(
      {{"id", Column::FromInt64s({1, 2, 3, 4, 5, 6})},
       {"group", Column::FromInt64s({0, 1, 0, 1, 0, 1})},
       {"value", Column::FromDoubles({1.0, 2.0, 3.0, 4.0, 5.0, 6.0})}});
}

TEST(ColumnTest, TypedAccess) {
  Column c = Column::FromDoubles({1.5, 2.5});
  EXPECT_EQ(c.type(), DataType::kDouble);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(std::get<double>(c.Get(1)), 2.5);
  c.Append(3.5);
  EXPECT_EQ(c.size(), 3);
}

TEST(ColumnTest, GeometryColumn) {
  Column c = Column::FromPoints({{1, 2}, {3, 4}});
  EXPECT_EQ(c.type(), DataType::kGeometry);
  EXPECT_EQ(c.points()[1].x, 3);
  EXPECT_GT(c.ByteSize(), 0);
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_TRUE(s.HasField("a"));
  EXPECT_FALSE(s.HasField("c"));
}

TEST(DataFrameTest, FromColumnsBasics) {
  DataFrame frame = SampleFrame();
  EXPECT_EQ(frame.NumRows(), 6);
  EXPECT_EQ(frame.num_partitions(), 1);
  EXPECT_EQ(frame.schema().num_fields(), 3);
}

TEST(DataFrameTest, RepartitionPreservesRows) {
  DataFrame frame = SampleFrame().Repartition(4);
  EXPECT_EQ(frame.num_partitions(), 4);
  EXPECT_EQ(frame.NumRows(), 6);
  std::vector<int64_t> ids = frame.CollectInt64("id");
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
}

TEST(DataFrameTest, SelectReordersColumns) {
  DataFrame out = SampleFrame().Select({"value", "id"});
  EXPECT_EQ(out.schema().num_fields(), 2);
  EXPECT_EQ(out.schema().name(0), "value");
  EXPECT_EQ(out.CollectInt64("id").size(), 6u);
}

TEST(DataFrameTest, Filter) {
  DataFrame frame = SampleFrame().Repartition(3);
  const int value_idx = frame.schema().FieldIndex("value");
  DataFrame out = frame.Filter(
      [value_idx](const RowView& row) { return row.GetDouble(value_idx) > 3.0; });
  EXPECT_EQ(out.NumRows(), 3);
}

TEST(DataFrameTest, WithColumnComputes) {
  DataFrame frame = SampleFrame();
  const int value_idx = frame.schema().FieldIndex("value");
  DataFrame out = frame.WithColumn(
      "doubled", DataType::kDouble,
      [value_idx](const RowView& row) -> Value {
        return row.GetDouble(value_idx) * 2.0;
      });
  std::vector<double> doubled = out.CollectDouble("doubled");
  EXPECT_EQ(doubled[0], 2.0);
  EXPECT_EQ(doubled[5], 12.0);
}

TEST(DataFrameTest, Drop) {
  DataFrame out = SampleFrame().Drop("group");
  EXPECT_EQ(out.schema().num_fields(), 2);
  EXPECT_FALSE(out.schema().HasField("group"));
}

TEST(DataFrameTest, GroupByAggMatchesManual) {
  Rng rng(5);
  std::vector<int64_t> keys;
  std::vector<double> values;
  std::map<int64_t, std::pair<int64_t, double>> manual;  // count, sum
  std::map<int64_t, double> manual_min;
  std::map<int64_t, double> manual_max;
  std::map<int64_t, double> manual_sumsq;
  for (int i = 0; i < 500; ++i) {
    const int64_t k = rng.UniformInt(0, 20);
    const double v = rng.Uniform(-10, 10);
    keys.push_back(k);
    values.push_back(v);
    manual[k].first += 1;
    manual[k].second += v;
    manual_sumsq[k] += v * v;
    auto [min_it, inserted] = manual_min.try_emplace(k, v);
    if (!inserted) min_it->second = std::min(min_it->second, v);
    auto [max_it, inserted2] = manual_max.try_emplace(k, v);
    if (!inserted2) max_it->second = std::max(max_it->second, v);
  }
  DataFrame frame =
      DataFrame::FromColumns({{"k", Column::FromInt64s(keys)},
                              {"v", Column::FromDoubles(values)}})
          .Repartition(4);
  DataFrame agg = frame.GroupByAgg(
      {"k"}, {{AggKind::kCount, "", "n"},
              {AggKind::kSum, "v", "sum_v"},
              {AggKind::kMin, "v", "min_v"},
              {AggKind::kMax, "v", "max_v"},
              {AggKind::kMean, "v", "mean_v"}});
  EXPECT_EQ(agg.NumRows(), static_cast<int64_t>(manual.size()));

  DataFrame sorted = agg.SortByInt64("k");
  std::vector<int64_t> out_k = sorted.CollectInt64("k");
  std::vector<int64_t> out_n = sorted.CollectInt64("n");
  std::vector<double> out_sum = sorted.CollectDouble("sum_v");
  std::vector<double> out_min = sorted.CollectDouble("min_v");
  std::vector<double> out_max = sorted.CollectDouble("max_v");
  std::vector<double> out_mean = sorted.CollectDouble("mean_v");
  for (size_t i = 0; i < out_k.size(); ++i) {
    const int64_t k = out_k[i];
    EXPECT_EQ(out_n[i], manual[k].first);
    EXPECT_NEAR(out_sum[i], manual[k].second, 1e-9);
    EXPECT_NEAR(out_min[i], manual_min[k], 1e-12);
    EXPECT_NEAR(out_max[i], manual_max[k], 1e-12);
    EXPECT_NEAR(out_mean[i], manual[k].second / manual[k].first, 1e-9);
  }

  // Nine aggregations in one pass; their number is not capped.
  DataFrame wide = frame
                       .GroupByAgg({"k"}, {{AggKind::kCount, "", "n"},
                                           {AggKind::kSum, "v", "sum_v"},
                                           {AggKind::kMin, "v", "min_v"},
                                           {AggKind::kMax, "v", "max_v"},
                                           {AggKind::kMean, "v", "mean_v"},
                                           {AggKind::kVariance, "v", "var_v"},
                                           {AggKind::kStdDev, "v", "std_v"},
                                           {AggKind::kSum, "k", "sum_k"},
                                           {AggKind::kMax, "k", "max_k"}})
                       .SortByInt64("k");
  ASSERT_EQ(wide.NumRows(), static_cast<int64_t>(manual.size()));
  EXPECT_EQ(wide.schema().num_fields(), 10);
  const std::vector<int64_t> wide_k = wide.CollectInt64("k");
  const std::vector<int64_t> wide_n = wide.CollectInt64("n");
  const std::vector<double> wide_sum = wide.CollectDouble("sum_v");
  const std::vector<double> wide_min = wide.CollectDouble("min_v");
  const std::vector<double> wide_max = wide.CollectDouble("max_v");
  const std::vector<double> wide_mean = wide.CollectDouble("mean_v");
  const std::vector<double> wide_var = wide.CollectDouble("var_v");
  const std::vector<double> wide_std = wide.CollectDouble("std_v");
  const std::vector<double> wide_sum_k = wide.CollectDouble("sum_k");
  const std::vector<double> wide_max_k = wide.CollectDouble("max_k");
  for (size_t i = 0; i < wide_k.size(); ++i) {
    const int64_t k = wide_k[i];
    const double count = static_cast<double>(manual[k].first);
    const double mean = manual[k].second / count;
    const double var = manual_sumsq[k] / count - mean * mean;
    EXPECT_EQ(wide_n[i], manual[k].first);
    EXPECT_NEAR(wide_sum[i], manual[k].second, 1e-9);
    EXPECT_NEAR(wide_min[i], manual_min[k], 1e-12);
    EXPECT_NEAR(wide_max[i], manual_max[k], 1e-12);
    EXPECT_NEAR(wide_mean[i], mean, 1e-9);
    EXPECT_NEAR(wide_var[i], var, 1e-9);
    EXPECT_NEAR(wide_std[i], std::sqrt(var), 1e-9);
    EXPECT_EQ(wide_sum_k[i], static_cast<double>(k) * count);
    EXPECT_EQ(wide_max_k[i], static_cast<double>(k));
  }
}

TEST(DataFrameTest, GroupByMultipleKeys) {
  DataFrame frame = SampleFrame();
  DataFrame agg = frame.GroupByAgg({"group", "id"},
                                   {{AggKind::kCount, "", "n"}});
  EXPECT_EQ(agg.NumRows(), 6);  // all (group, id) pairs unique

  // Three keys, one of them negative.
  DataFrame three =
      DataFrame::FromColumns({{"a", Column::FromInt64s({-3, -3, -3, 2, 2, -3})},
                              {"b", Column::FromInt64s({7, 7, 7, 7, 8, 7})},
                              {"c", Column::FromInt64s({5, 5, 4, 4, 4, 5})}})
          .Repartition(3);
  DataFrame agg3 =
      three.GroupByAgg({"a", "b", "c"}, {{AggKind::kCount, "", "n"}});
  const auto a = agg3.CollectInt64("a");
  const auto b = agg3.CollectInt64("b");
  const auto c = agg3.CollectInt64("c");
  const auto n = agg3.CollectInt64("n");
  std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t> counts;
  for (size_t i = 0; i < n.size(); ++i) counts[{a[i], b[i], c[i]}] = n[i];
  EXPECT_EQ(counts, (std::map<std::tuple<int64_t, int64_t, int64_t>, int64_t>{
                        {{-3, 7, 4}, 1},
                        {{-3, 7, 5}, 3},
                        {{2, 7, 4}, 1},
                        {{2, 8, 4}, 1}}));
}

TEST(DataFrameTest, JoinInner) {
  DataFrame left = SampleFrame();
  DataFrame right = DataFrame::FromColumns(
      {{"group", Column::FromInt64s({0, 1})},
       {"label", Column::FromStrings({"even", "odd"})}});
  DataFrame joined = left.JoinInner(right, "group", "group");
  EXPECT_EQ(joined.NumRows(), 6);
  EXPECT_TRUE(joined.schema().HasField("label"));
  // Row with id=2 (group 1) gets "odd".
  const int id_idx = joined.schema().FieldIndex("id");
  const int label_idx = joined.schema().FieldIndex("label");
  bool found = false;
  for (int pi = 0; pi < joined.num_partitions(); ++pi) {
    const Partition& part = joined.partition(pi);
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      if (part.column(id_idx).int64s()[r] == 2) {
        EXPECT_EQ(part.column(label_idx).strings()[r], "odd");
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(DataFrameTest, JoinDropsUnmatched) {
  DataFrame left = SampleFrame();
  DataFrame right = DataFrame::FromColumns(
      {{"g", Column::FromInt64s({0})},
       {"tag", Column::FromInt64s({42})}});
  DataFrame joined = left.JoinInner(right, "group", "g");
  EXPECT_EQ(joined.NumRows(), 3);  // only group==0 rows
}

TEST(DataFrameTest, SortByInt64) {
  DataFrame frame = DataFrame::FromColumns(
      {{"k", Column::FromInt64s({3, 1, 2})},
       {"v", Column::FromDoubles({30, 10, 20})}});
  DataFrame sorted = frame.SortByInt64("k");
  EXPECT_EQ(sorted.CollectInt64("k"), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(sorted.CollectDouble("v"), (std::vector<double>{10, 20, 30}));
}

// The sort runs per-partition with a k-way merge; the result must be a
// *stable* global sort with respect to the frame's row order (its
// partitions concatenated). Tag each row so ties are observable, and
// compute the expectation from the frame's own order — Repartition is
// round-robin, so that order differs from the input vectors'.
TEST(DataFrameTest, SortByInt64StableAcrossPartitions) {
  Rng rng(29);
  const int64_t n = 4000;
  std::vector<int64_t> keys(n);
  std::vector<int64_t> tags(n);
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = rng.UniformInt(0, 12);  // heavy ties
    tags[i] = i;
  }

  for (int parts : {1, 3, 8}) {
    DataFrame frame =
        DataFrame::FromColumns({{"k", Column::FromInt64s(keys)},
                                {"tag", Column::FromInt64s(tags)}})
            .Repartition(parts);
    const std::vector<int64_t> frame_k = frame.CollectInt64("k");
    const std::vector<int64_t> frame_tag = frame.CollectInt64("tag");
    std::vector<int64_t> order(n);
    for (int64_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(
        order.begin(), order.end(),
        [&](int64_t a, int64_t b) { return frame_k[a] < frame_k[b]; });

    DataFrame sorted = frame.SortByInt64("k");
    const std::vector<int64_t> out_k = sorted.CollectInt64("k");
    const std::vector<int64_t> out_tag = sorted.CollectInt64("tag");
    ASSERT_EQ(out_k.size(), static_cast<size_t>(n)) << parts;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(out_k[i], frame_k[order[i]])
          << "parts=" << parts << " i=" << i;
      ASSERT_EQ(out_tag[i], frame_tag[order[i]])
          << "parts=" << parts << " i=" << i;
    }
  }
}

TEST(DataFrameTest, MemoryAccountingReleasesOnDrop) {
  MemoryTracker& tracker = MemoryTracker::Global();
  const int64_t before = tracker.current_bytes();
  {
    std::vector<int64_t> big(100000, 7);
    DataFrame frame =
        DataFrame::FromColumns({{"x", Column::FromInt64s(std::move(big))}});
    EXPECT_GE(tracker.current_bytes(), before + 800000);
  }
  EXPECT_LE(tracker.current_bytes(), before + 1024);
}

DataFrame EmptyFrame() {
  return DataFrame::FromColumns(
      {{"k", Column::FromInt64s({})}, {"v", Column::FromDoubles({})}});
}

TEST(DataFrameTest, GroupByOnEmptyFrame) {
  DataFrame agg = EmptyFrame().GroupByAgg(
      {"k"}, {{AggKind::kCount, "", "n"}, {AggKind::kSum, "v", "sum_v"}});
  EXPECT_EQ(agg.NumRows(), 0);
  EXPECT_TRUE(agg.schema().HasField("k"));
  EXPECT_TRUE(agg.schema().HasField("n"));
  EXPECT_TRUE(agg.schema().HasField("sum_v"));
  EXPECT_TRUE(agg.CollectInt64("k").empty());
}

// Phase 1 of GroupByAgg pre-aggregates a (partition, shard)'s rows
// until its table holds kGroupByPartialCap keys; every later row goes
// raw, whether its key is in the table or not. The output cannot show
// the split, so the df.groupby.raw_rows counter pins the boundary.
TEST(DataFrameTest, GroupByRowsGoRawOnceCapKeysArePreAggregated) {
  const auto cap = static_cast<int64_t>(kGroupByPartialCap);
  const bool obs_was_on = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* raw_rows = obs::GetCounter("df.groupby.raw_rows");
  // Raw rows of a one-partition, one-shard group-by over `keys`, whose
  // counts and sums must match the rows whatever the split.
  const auto raw_for = [&](const std::vector<int64_t>& keys) {
    std::vector<double> values(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) values[i] = 0.25 * i;
    const DataFrame frame = DataFrame::FromColumns(
        {{"k", Column::FromInt64s(keys)},
         {"v", Column::FromDoubles(values)}});
    const int64_t before = raw_rows->value();
    const DataFrame agg = frame.GroupByAgg(
        {"k"}, {{AggKind::kCount, "", "n"}, {AggKind::kSum, "v", "s"}}, 1);
    std::map<int64_t, std::pair<int64_t, double>> want;
    for (size_t i = 0; i < keys.size(); ++i) {
      ++want[keys[i]].first;
      want[keys[i]].second += values[i];
    }
    const auto ks = agg.CollectInt64("k");
    const auto ns = agg.CollectInt64("n");
    const auto ss = agg.CollectDouble("s");
    EXPECT_EQ(ks.size(), want.size());
    for (size_t g = 0; g < ks.size(); ++g) {
      EXPECT_EQ(ns[g], want[ks[g]].first) << ks[g];
      EXPECT_EQ(ss[g], want[ks[g]].second) << ks[g];
    }
    return raw_rows->value() - before;
  };
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < cap - 1; ++k) keys.push_back(k);
  keys.push_back(0);  // cap - 1 keys: the table is not full
  EXPECT_EQ(raw_for(keys), 0);
  keys.push_back(cap - 1);  // the cap-th key still goes to the table
  EXPECT_EQ(raw_for(keys), 0);
  keys.push_back(0);  // full: a key already in the table goes raw
  EXPECT_EQ(raw_for(keys), 1);
  keys.push_back(cap + 5);  // and so does a new one
  EXPECT_EQ(raw_for(keys), 2);
  obs::SetEnabled(obs_was_on);
}

TEST(DataFrameTest, JoinOnEmptySides) {
  DataFrame populated = SampleFrame();
  DataFrame empty = DataFrame::FromColumns(
      {{"k", Column::FromInt64s({})}, {"tag", Column::FromInt64s({})}});

  DataFrame left_empty = EmptyFrame().JoinInner(populated, "k", "group");
  EXPECT_EQ(left_empty.NumRows(), 0);
  EXPECT_TRUE(left_empty.schema().HasField("value"));

  DataFrame right_empty = populated.JoinInner(empty, "group", "k");
  EXPECT_EQ(right_empty.NumRows(), 0);
  EXPECT_TRUE(right_empty.schema().HasField("tag"));
  EXPECT_TRUE(right_empty.CollectInt64("id").empty());
}

TEST(DataFrameTest, JoinWithZeroMatches) {
  DataFrame left = SampleFrame();
  DataFrame right = DataFrame::FromColumns(
      {{"g", Column::FromInt64s({77, 78})},
       {"tag", Column::FromInt64s({1, 2})}});
  DataFrame joined = left.JoinInner(right, "group", "g");
  EXPECT_EQ(joined.NumRows(), 0);
  // The right key column is dropped from the output schema.
  EXPECT_EQ(joined.schema().num_fields(), 4);  // id, group, value, tag
  EXPECT_TRUE(joined.CollectInt64("tag").empty());
}

TEST(DataFrameTest, SortOnEmptyFrame) {
  DataFrame sorted = EmptyFrame().SortByInt64("k");
  EXPECT_EQ(sorted.NumRows(), 0);
  EXPECT_TRUE(sorted.CollectInt64("k").empty());
}

TEST(DataFrameTest, SingleRowPartitions) {
  // More partitions than rows: some partitions hold one row, some none.
  DataFrame frame = SampleFrame().Repartition(8);
  EXPECT_EQ(frame.NumRows(), 6);

  DataFrame agg =
      frame.GroupByAgg({"group"}, {{AggKind::kCount, "", "n"},
                                   {AggKind::kSum, "value", "sum_v"}});
  DataFrame sorted = agg.SortByInt64("group");
  EXPECT_EQ(sorted.CollectInt64("n"), (std::vector<int64_t>{3, 3}));
  std::vector<double> sums = sorted.CollectDouble("sum_v");
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_NEAR(sums[0], 1.0 + 3.0 + 5.0, 1e-12);
  EXPECT_NEAR(sums[1], 2.0 + 4.0 + 6.0, 1e-12);

  DataFrame filtered = frame.Filter([](const RowView&) { return false; });
  EXPECT_EQ(filtered.NumRows(), 0);
}

TEST(DataFrameTest, PartitionByteSizesSumToTrackedTotal) {
  MemoryTracker& tracker = MemoryTracker::Global();
  const int64_t before = tracker.current_bytes();
  {
    std::vector<int64_t> keys(5000);
    std::vector<double> values(5000);
    for (int i = 0; i < 5000; ++i) {
      keys[i] = i % 17;
      values[i] = i * 0.5;
    }
    DataFrame frame =
        DataFrame::FromColumns({{"k", Column::FromInt64s(std::move(keys))},
                                {"v", Column::FromDoubles(std::move(values))}})
            .Repartition(4);
    int64_t partition_sum = 0;
    for (int pi = 0; pi < frame.num_partitions(); ++pi) {
      partition_sum += frame.partition(pi).ByteSize();
    }
    // The tracker's delta for this frame is exactly the sum of its
    // partitions' logical byte sizes (the original single-partition
    // frame was dropped when Repartition returned).
    EXPECT_EQ(tracker.current_bytes() - before, partition_sum);
    EXPECT_GE(tracker.peak_bytes(), tracker.current_bytes());
  }
  EXPECT_EQ(tracker.current_bytes(), before);
}

TEST(CsvTest, RoundTrip) {
  DataFrame frame = DataFrame::FromColumns(
      {{"id", Column::FromInt64s({1, 2})},
       {"v", Column::FromDoubles({1.5, -2.25})},
       {"name", Column::FromStrings({"a", "b"})},
       {"pt", Column::FromPoints({{-74.0, 40.7}, {-73.9, 40.8}})}});
  const ScopedTempPath path("frame.csv");
  ASSERT_TRUE(WriteCsv(frame, path).ok());
  auto loaded = ReadCsv(path, frame.schema());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumRows(), 2);
  EXPECT_EQ(loaded->CollectInt64("id"), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(loaded->CollectDouble("v"), (std::vector<double>{1.5, -2.25}));
  const Partition& part = loaded->partition(0);
  EXPECT_EQ(part.column(3).points()[1].y, 40.8);
}

TEST(CsvTest, MissingFile) {
  Schema schema({{"a", DataType::kInt64}});
  EXPECT_FALSE(ReadCsv("/no/such/file.csv", schema).ok());
}

}  // namespace
}  // namespace geotorch::df
