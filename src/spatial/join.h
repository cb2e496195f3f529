#ifndef GEOTORCH_SPATIAL_JOIN_H_
#define GEOTORCH_SPATIAL_JOIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "spatial/geometry.h"
#include "spatial/grid.h"
#include "spatial/strtree.h"

namespace geotorch::spatial {

/// A (point index, polygon index) match from a spatial join.
struct JoinPair {
  int64_t point_idx;
  int64_t polygon_idx;
};

inline bool operator==(const JoinPair& a, const JoinPair& b) {
  return a.point_idx == b.point_idx && a.polygon_idx == b.polygon_idx;
}

/// Point-in-polygon join strategies. The paper's preprocessing module
/// aggregates trip points into grid cells via "efficient spatial joins
/// on Apache Sedona"; these are the equivalents, compared by the
/// ablation bench `ablation_spatial_join`.
enum class JoinStrategy {
  kNestedLoop,  ///< O(P * G) baseline
  kStrTree,     ///< index the polygons, probe with each point
  kGridHash,    ///< O(1) cell lookup, valid when polygons form a grid
  kAuto,        ///< kGridHash when a grid is supplied, else kStrTree
};

/// How a join executes. On the parallel device, probe-side rows fan
/// out across the pool in contiguous chunks with per-chunk result
/// buffers; the buffers are concatenated in chunk order, so the output
/// is identical to the serial device's join row for row (DESIGN.md §8).
struct JoinOptions {
  JoinStrategy strategy = JoinStrategy::kAuto;
  /// Pool for parallel execution; nullptr means ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

/// Joins each point to the polygons containing it. For kGridHash (or
/// kAuto with a grid), `grid` must describe the same cells as
/// `polygons` (polygon i == grid cell i); pass nullptr otherwise.
std::vector<JoinPair> PointInPolygonJoin(const std::vector<Point>& points,
                                         const std::vector<Polygon>& polygons,
                                         const JoinOptions& options,
                                         const GridPartitioner* grid = nullptr);

/// Convenience overload: `strategy` on the global pool.
std::vector<JoinPair> PointInPolygonJoin(const std::vector<Point>& points,
                                         const std::vector<Polygon>& polygons,
                                         JoinStrategy strategy,
                                         const GridPartitioner* grid = nullptr);

/// Fast path used by the preprocessing module: assigns each point its
/// grid cell id (-1 when outside the extent) in O(1) per point — no
/// tree walk. Takes a span so a DataFrame column can be probed straight
/// out of a memory-mapped partition without copying. Runs
/// partition-parallel on `pool` (nullptr: the global pool); every slot
/// is written independently, so the output never depends on the
/// device.
std::vector<int64_t> AssignPointsToCells(std::span<const Point> points,
                                         const GridPartitioner& grid,
                                         ThreadPool* pool = nullptr);

/// A (left index, right index) match from a distance join.
struct DistancePair {
  int64_t left_idx;
  int64_t right_idx;
};

inline bool operator==(const DistancePair& a, const DistancePair& b) {
  return a.left_idx == b.left_idx && a.right_idx == b.right_idx;
}

/// All (a, b) pairs with Euclidean distance <= radius, found by
/// indexing `right` in an STR-tree and probing with a radius box per
/// left point (Sedona's DistanceJoin). Build and probes are threaded
/// like PointInPolygonJoin; output order matches the serial join.
std::vector<DistancePair> DistanceJoin(const std::vector<Point>& left,
                                       const std::vector<Point>& right,
                                       double radius);
std::vector<DistancePair> DistanceJoin(const std::vector<Point>& left,
                                       const std::vector<Point>& right,
                                       double radius,
                                       const JoinOptions& options);

}  // namespace geotorch::spatial

#endif  // GEOTORCH_SPATIAL_JOIN_H_
