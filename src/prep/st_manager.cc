#include "prep/st_manager.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "core/check.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "spatial/join.h"

namespace geotorch::prep {

spatial::Envelope SpacePartition::ComputeExtent(
    const df::DataFrame& frame, const std::string& geometry_column) {
  const int col = frame.schema().FieldIndex(geometry_column);
  GEO_CHECK(frame.schema().type(col) == df::DataType::kGeometry);
  std::mutex mu;
  spatial::Envelope extent = spatial::Envelope::Empty();
  frame.ForEachPartition([&](const df::Partition& part, int) {
    spatial::Envelope local = spatial::Envelope::Empty();
    for (const auto& p : part.column(col).points()) {
      local.ExpandToInclude(p);
    }
    std::lock_guard<std::mutex> lock(mu);
    extent.ExpandToInclude(local);
  });
  GEO_CHECK(!extent.IsEmpty()) << "no points in column " << geometry_column;
  return extent;
}

spatial::GridPartitioner SpacePartition::BuildGrid(
    const spatial::Envelope& extent, int partitions_x, int partitions_y) {
  return spatial::GridPartitioner(extent, partitions_x, partitions_y);
}

df::DataFrame STManager::AddSpatialPoints(
    const df::DataFrame& frame, const std::string& lat_column,
    const std::string& lon_column, const std::string& new_column_alias) {
  const int lat = frame.schema().FieldIndex(lat_column);
  const int lon = frame.schema().FieldIndex(lon_column);
  return frame.WithColumn(
      new_column_alias, df::DataType::kGeometry,
      [lat, lon](const df::RowView& row) -> df::Value {
        return spatial::Point{row.GetDouble(lon), row.GetDouble(lat)};
      });
}

namespace {

// The grid cell of every point of `geometry_column` (-1 outside the
// extent), one vector per partition, via the spatial engine's
// uniform-grid fast path. The outer loop already fans partitions
// across the pool, so each partition's assign runs inline on its
// worker.
std::vector<std::vector<int64_t>> CellIds(const df::DataFrame& frame,
                                          const spatial::GridPartitioner& grid,
                                          const std::string& geometry_column) {
  GEO_OBS_SPAN(scatter_span, "prep.cell_scatter");
  const int geom_col = frame.schema().FieldIndex(geometry_column);
  GEO_CHECK(frame.schema().type(geom_col) == df::DataType::kGeometry);
  std::vector<std::vector<int64_t>> cells(frame.num_partitions());
  frame.ForEachPartition([&](const df::Partition& part, int pi) {
    cells[pi] =
        spatial::AssignPointsToCells(part.column(geom_col).points(), grid);
  });
  return cells;
}

}  // namespace

df::DataFrame STManager::AssignCellColumn(const df::DataFrame& frame,
                                          const spatial::GridPartitioner& grid,
                                          const std::string& geometry_column,
                                          const std::string& alias) {
  std::vector<std::vector<int64_t>> cells =
      CellIds(frame, grid, geometry_column);
  auto fields = frame.schema().fields();
  fields.emplace_back(alias, df::DataType::kInt64);
  auto schema = std::make_shared<const df::Schema>(std::move(fields));

  std::vector<std::shared_ptr<const df::Partition>> parts(
      frame.num_partitions());
  frame.ForEachPartition([&](const df::Partition& part, int pi) {
    std::vector<df::SharedColumn> cols;
    cols.reserve(part.num_columns() + 1);
    for (int c = 0; c < part.num_columns(); ++c) {
      cols.push_back(part.column_ptr(c));
    }
    cols.push_back(
        df::TrackColumn(df::Column::FromInt64s(std::move(cells[pi]))));
    parts[pi] = std::make_shared<df::Partition>(std::move(cols));
  });
  return df::DataFrame::FromPartitions(std::move(schema), std::move(parts));
}

StGridResult STManager::GetStGridDataFrame(const df::DataFrame& frame,
                                           const StGridSpec& spec) {
  GEO_OBS_SPAN(grid_span, "prep.st_grid");
  GEO_CHECK(spec.partitions_x >= 1 && spec.partitions_y >= 1);
  GEO_CHECK_GT(spec.step_duration_sec, 0);
  const df::Schema& in_schema = frame.schema();
  GEO_CHECK(!in_schema.HasField("cell_id") && !in_schema.HasField("time_id"))
      << "GetStGridDataFrame computes cell_id and time_id itself";

  const spatial::Envelope extent =
      spec.extent.has_value()
          ? *spec.extent
          : SpacePartition::ComputeExtent(frame, spec.geometry_column);
  const spatial::GridPartitioner grid =
      SpacePartition::BuildGrid(extent, spec.partitions_x, spec.partitions_y);

  const int time_col = in_schema.FieldIndex(spec.time_column);
  GEO_CHECK(in_schema.type(time_col) == df::DataType::kInt64)
      << "time column must be int64 seconds";

  std::vector<df::AggSpec> aggs = spec.aggs;
  if (aggs.empty()) {
    aggs.push_back({df::AggKind::kCount, "", "count"});
  }
  // The narrow frame the aggregation reads: cell_id, time_id, then each
  // aggregated input column once, in aggregation order.
  std::vector<std::pair<std::string, df::DataType>> fields = {
      {"cell_id", df::DataType::kInt64}, {"time_id", df::DataType::kInt64}};
  std::vector<int> value_cols;
  for (const auto& a : aggs) {
    if (a.kind == df::AggKind::kCount) continue;
    if (std::none_of(fields.begin(), fields.end(),
                     [&a](const auto& f) { return f.first == a.column; })) {
      const int c = in_schema.FieldIndex(a.column);
      fields.emplace_back(a.column, in_schema.type(c));
      value_cols.push_back(c);
    }
  }
  auto narrow_schema = std::make_shared<const df::Schema>(std::move(fields));

  // Spatial join via the grid fast path (bulk, partition-parallel),
  // then one pass per partition computes each row's time slot, drops
  // the rows outside the extent and gathers the aggregated columns.
  const std::vector<std::vector<int64_t>> cells =
      CellIds(frame, grid, spec.geometry_column);
  std::vector<std::shared_ptr<const df::Partition>> narrow_parts(
      frame.num_partitions());
  frame.ForEachPartition([&](const df::Partition& part, int pi) {
    const std::vector<int64_t>& cell = cells[pi];
    const auto times = part.column(time_col).int64s();
    const int64_t kept = std::count_if(cell.begin(), cell.end(),
                                       [](int64_t c) { return c >= 0; });
    std::vector<int64_t> keep;
    std::vector<int64_t> cell_ids;
    std::vector<int64_t> time_ids;
    keep.reserve(kept);
    cell_ids.reserve(kept);
    time_ids.reserve(kept);
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      if (cell[r] < 0) continue;
      keep.push_back(r);
      cell_ids.push_back(cell[r]);
      time_ids.push_back(times[r] / spec.step_duration_sec);
    }
    std::vector<df::Column> cols;
    cols.reserve(2 + value_cols.size());
    cols.push_back(df::Column::FromInt64s(std::move(cell_ids)));
    cols.push_back(df::Column::FromInt64s(std::move(time_ids)));
    for (int c : value_cols) cols.push_back(part.column(c).Gather(keep));
    narrow_parts[pi] = std::make_shared<df::Partition>(std::move(cols));
  });
  const df::DataFrame inside = df::DataFrame::FromPartitions(
      std::move(narrow_schema), std::move(narrow_parts));

  // Shard the aggregation at least as fine as the input partitioning:
  // with near-unique (cell, time) keys the output is data-sized, and a
  // single merge shard (the default on a small pool) would produce one
  // dataset-scale partition — the exact granularity the out-of-core
  // store cannot usefully evict (DESIGN.md §12).
  const int agg_shards =
      std::max(inside.num_partitions(),
               std::max(1, ThreadPool::Global().num_threads()));
  df::DataFrame aggregated =
      inside.GroupByAgg({"cell_id", "time_id"}, aggs, agg_shards);

  // Number of timesteps: max time_id + 1 over the aggregated frame.
  int64_t max_time = -1;
  for (int64_t t : aggregated.CollectInt64("time_id")) {
    max_time = std::max(max_time, t);
  }

  StGridResult result;
  result.frame = std::move(aggregated);
  result.extent = extent;
  result.partitions_x = spec.partitions_x;
  result.partitions_y = spec.partitions_y;
  result.step_duration_sec = spec.step_duration_sec;
  result.num_timesteps = max_time + 1;
  return result;
}

tensor::Tensor STManager::GetStGridTensor(
    const StGridResult& result,
    const std::vector<std::string>& value_columns) {
  GEO_OBS_SPAN(scatter_span, "prep.tensor_scatter");
  GEO_CHECK(!value_columns.empty());
  const int64_t t = result.num_timesteps;
  const int64_t c = static_cast<int64_t>(value_columns.size());
  const int64_t h = result.partitions_y;
  const int64_t w = result.partitions_x;
  GEO_CHECK_GT(t, 0) << "empty spatiotemporal frame";
  tensor::Tensor out = tensor::Tensor::Zeros({t, c, h, w});
  float* po = out.data();

  const df::DataFrame& frame = result.frame;
  const int cell_col = frame.schema().FieldIndex("cell_id");
  const int time_col = frame.schema().FieldIndex("time_id");
  std::vector<int> value_idx;
  std::vector<bool> value_is_int;
  for (const auto& name : value_columns) {
    const int i = frame.schema().FieldIndex(name);
    value_idx.push_back(i);
    value_is_int.push_back(frame.schema().type(i) == df::DataType::kInt64);
  }

  // Post-group-by, every (cell, time) key lives in exactly one
  // partition, so the parallel scatter below writes disjoint offsets.
  frame.ForEachPartition([&](const df::Partition& part, int) {
    const auto& cells = part.column(cell_col).int64s();
    const auto& times = part.column(time_col).int64s();
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      const int64_t cell = cells[r];
      const int64_t time = times[r];
      GEO_CHECK(cell >= 0 && cell < h * w && time >= 0 && time < t);
      const int64_t iy = cell / w;
      const int64_t ix = cell % w;
      for (int64_t ci = 0; ci < c; ++ci) {
        const df::Column& col = part.column(value_idx[ci]);
        const double v = value_is_int[ci]
                             ? static_cast<double>(col.int64s()[r])
                             : col.doubles()[r];
        po[((time * c + ci) * h + iy) * w + ix] = static_cast<float>(v);
      }
    }
  });
  return out;
}

tensor::Tensor STManager::CoarsenGrid(const tensor::Tensor& st_tensor,
                                      int64_t factor) {
  GEO_CHECK_EQ(st_tensor.ndim(), 4);
  GEO_CHECK_GE(factor, 1);
  const int64_t t = st_tensor.size(0);
  const int64_t c = st_tensor.size(1);
  const int64_t h = st_tensor.size(2);
  const int64_t w = st_tensor.size(3);
  GEO_CHECK(h % factor == 0 && w % factor == 0)
      << "grid " << h << "x" << w << " not divisible by " << factor;
  const int64_t oh = h / factor;
  const int64_t ow = w / factor;
  tensor::Tensor out = tensor::Tensor::Zeros({t, c, oh, ow});
  const float* pi = st_tensor.data();
  float* po = out.data();
  for (int64_t tc = 0; tc < t * c; ++tc) {
    const float* in_plane = pi + tc * h * w;
    float* out_plane = po + tc * oh * ow;
    for (int64_t i = 0; i < h; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        out_plane[(i / factor) * ow + (j / factor)] += in_plane[i * w + j];
      }
    }
  }
  return out;
}

}  // namespace geotorch::prep
