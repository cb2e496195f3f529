#ifndef GEOTORCH_PREP_ST_MANAGER_H_
#define GEOTORCH_PREP_ST_MANAGER_H_

#include <optional>
#include <string>
#include <vector>

#include "df/dataframe.h"
#include "spatial/grid.h"
#include "tensor/tensor.h"

namespace geotorch::prep {

/// Mirrors geotorchai.preprocessing.grid.SpacePartition: helpers that
/// derive a grid partitioning of the geographical space covered by a
/// DataFrame.
class SpacePartition {
 public:
  /// Bounding box of a geometry column across all partitions (computed
  /// in parallel).
  static spatial::Envelope ComputeExtent(const df::DataFrame& frame,
                                         const std::string& geometry_column);

  /// Equal-cell grid over an extent (partitions_x columns by
  /// partitions_y rows).
  static spatial::GridPartitioner BuildGrid(const spatial::Envelope& extent,
                                            int partitions_x,
                                            int partitions_y);
};

/// Parameters of spatiotemporal tensor formation, following the
/// paper's Listing 8 (`get_st_grid_dataframe`).
struct StGridSpec {
  std::string geometry_column = "point";
  int partitions_x = 12;
  int partitions_y = 16;
  std::string time_column = "time";
  int64_t step_duration_sec = 1800;
  /// When unset, the extent is computed from the data.
  std::optional<spatial::Envelope> extent;
  /// Aggregations per (cell, timestep); default is a single count
  /// feature.
  std::vector<df::AggSpec> aggs;
};

/// Output of GetStGridDataFrame: the aggregated frame plus the grid and
/// time discretization needed to densify it.
struct StGridResult {
  df::DataFrame frame;  ///< columns: cell_id, time_id, <agg aliases...>
  spatial::Envelope extent;
  int partitions_x = 0;
  int partitions_y = 0;
  int64_t step_duration_sec = 0;
  int64_t num_timesteps = 0;
};

/// Mirrors geotorchai.preprocessing.grid.STManager: converts raw
/// spatiotemporal DataFrames into grid-based spatiotemporal tensors via
/// spatial joins and group-by aggregation, all executed per-partition
/// on the worker pool (no master collect).
class STManager {
 public:
  /// Listing 8 line 3: builds a geometry column from lat/lon columns.
  static df::DataFrame AddSpatialPoints(const df::DataFrame& frame,
                                        const std::string& lat_column,
                                        const std::string& lon_column,
                                        const std::string& new_column_alias);

  /// Bulk point-to-cell scatter: appends `alias` (int64 cell id, -1
  /// outside the extent) computed per partition with the spatial
  /// engine's uniform-grid fast path (spatial::AssignPointsToCells) —
  /// the partition-parallel spatial join GetStGridDataFrame runs,
  /// bypassing the per-row closure of WithColumn.
  static df::DataFrame AssignCellColumn(const df::DataFrame& frame,
                                        const spatial::GridPartitioner& grid,
                                        const std::string& geometry_column,
                                        const std::string& alias);

  /// Listing 8 line 6: assigns each row a grid cell (spatial join
  /// against the grid) and a time slot, drops rows outside the extent,
  /// and aggregates features within each (cell, timestep) group. The
  /// result equals, bitwise and partition for partition, AssignCellColumn
  /// ("cell_id") -> WithColumn("time_id") -> Select(cell_id, time_id,
  /// aggregated columns) -> Filter(cell_id >= 0) -> GroupByAgg, but the
  /// narrow frame is built in one pass. The input must not already
  /// have a cell_id or time_id column.
  static StGridResult GetStGridDataFrame(const df::DataFrame& frame,
                                         const StGridSpec& spec);

  /// Densifies the aggregated frame into a (T, C, H, W) tensor, one
  /// channel per `value_column`. The scatter runs partition-parallel —
  /// this is the DF Formatter half of the DFtoTorch converter.
  static tensor::Tensor GetStGridTensor(
      const StGridResult& result,
      const std::vector<std::string>& value_columns);

  /// Reduces the spatial resolution of a (T, C, H, W) tensor by
  /// sum-pooling `factor` x `factor` cell blocks — the data-volume
  /// reduction / re-partitioning feature referenced in Section III-B1.
  static tensor::Tensor CoarsenGrid(const tensor::Tensor& st_tensor,
                                    int64_t factor);
};

}  // namespace geotorch::prep

#endif  // GEOTORCH_PREP_ST_MANAGER_H_
