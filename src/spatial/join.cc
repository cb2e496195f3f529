#include "spatial/join.h"

#include <algorithm>

#include "core/check.h"
#include "core/thread_pool.h"
#include "obs/obs.h"

namespace geotorch::spatial {
namespace {

/// Runs `probe(i, buffer)` for every probe index in [0, n). When the
/// pool would fan out (ThreadPool::Chunks) it spreads contiguous index
/// chunks across the pool with one result buffer per chunk, then
/// concatenates the buffers in chunk order. Within a chunk the probe
/// loop is the serial loop; chunks partition [0, n) in order — so the
/// merged output equals the serial output row for row, for any chunk
/// count and any pool size.
template <typename Pair, typename ProbeFn>
std::vector<Pair> RunProbes(int64_t n, const JoinOptions& options,
                            const ProbeFn& probe) {
  GEO_OBS_SPAN(probe_span, "spatial.probe");
  GEO_OBS_COUNT("spatial.probes", n);
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  std::vector<Pair> out;
  if (pool.Chunks(n) <= 1) {
    for (int64_t i = 0; i < n; ++i) probe(i, out);
    return out;
  }
  const int64_t chunks =
      std::min<int64_t>(n, int64_t{4} * pool.num_threads());
  const int64_t per = (n + chunks - 1) / chunks;
  std::vector<std::vector<Pair>> buffers(chunks);
  pool.ParallelFor(chunks, [&](int64_t c) {
    const int64_t begin = c * per;
    const int64_t end = std::min<int64_t>(n, begin + per);
    std::vector<Pair>& buffer = buffers[c];
    for (int64_t i = begin; i < end; ++i) probe(i, buffer);
  });
  std::vector<int64_t> offsets(chunks + 1, 0);
  for (int64_t c = 0; c < chunks; ++c) {
    offsets[c + 1] = offsets[c] + static_cast<int64_t>(buffers[c].size());
  }
  out.resize(offsets[chunks]);
  pool.ParallelFor(chunks, [&](int64_t c) {
    std::copy(buffers[c].begin(), buffers[c].end(),
              out.begin() + offsets[c]);
  });
  GEO_OBS_COUNT("spatial.merge_bytes",
                offsets[chunks] * static_cast<int64_t>(sizeof(Pair)));
  return out;
}

}  // namespace

std::vector<JoinPair> PointInPolygonJoin(const std::vector<Point>& points,
                                         const std::vector<Polygon>& polygons,
                                         const JoinOptions& options,
                                         const GridPartitioner* grid) {
  JoinStrategy strategy = options.strategy;
  if (strategy == JoinStrategy::kAuto) {
    strategy =
        grid != nullptr ? JoinStrategy::kGridHash : JoinStrategy::kStrTree;
  }
  const int64_t num_points = static_cast<int64_t>(points.size());
  switch (strategy) {
    case JoinStrategy::kNestedLoop: {
      return RunProbes<JoinPair>(
          num_points, options,
          [&points, &polygons](int64_t pi, std::vector<JoinPair>& out) {
            for (int64_t gi = 0; gi < static_cast<int64_t>(polygons.size());
                 ++gi) {
              if (polygons[gi].Contains(points[pi])) out.push_back({pi, gi});
            }
          });
    }
    case JoinStrategy::kStrTree: {
      std::vector<StrTree::Entry> entries;
      entries.reserve(polygons.size());
      for (int64_t gi = 0; gi < static_cast<int64_t>(polygons.size()); ++gi) {
        entries.push_back({polygons[gi].bounds(), gi});
      }
      StrTree tree(std::move(entries), 10, options.pool);
      return RunProbes<JoinPair>(
          num_points, options,
          [&points, &polygons, &tree](int64_t pi,
                                      std::vector<JoinPair>& out) {
            const Point& p = points[pi];
            Envelope probe(p.x, p.y, p.x, p.y);
            tree.Visit(probe, [&](int64_t gi) {
              if (polygons[gi].Contains(p)) out.push_back({pi, gi});
            });
          });
    }
    case JoinStrategy::kGridHash: {
      GEO_CHECK(grid != nullptr) << "kGridHash requires the grid partitioner";
      GEO_CHECK_EQ(static_cast<int64_t>(polygons.size()), grid->NumCells());
      std::vector<JoinPair> out = RunProbes<JoinPair>(
          num_points, options,
          [&points, grid](int64_t pi, std::vector<JoinPair>& out) {
            auto cell = grid->CellOf(points[pi]);
            if (cell.has_value()) out.push_back({pi, *cell});
          });
      GEO_OBS_COUNT("spatial.fastpath_hits",
                    static_cast<int64_t>(out.size()));
      return out;
    }
    case JoinStrategy::kAuto:
      break;  // resolved above
  }
  GEO_CHECK(false) << "unreachable join strategy";
  return {};
}

std::vector<JoinPair> PointInPolygonJoin(const std::vector<Point>& points,
                                         const std::vector<Polygon>& polygons,
                                         JoinStrategy strategy,
                                         const GridPartitioner* grid) {
  JoinOptions options;
  options.strategy = strategy;
  return PointInPolygonJoin(points, polygons, options, grid);
}

std::vector<int64_t> AssignPointsToCells(std::span<const Point> points,
                                         const GridPartitioner& grid,
                                         ThreadPool* pool) {
  GEO_OBS_SPAN(probe_span, "spatial.probe");
  const int64_t n = static_cast<int64_t>(points.size());
  GEO_OBS_COUNT("spatial.probes", n);
  std::vector<int64_t> cells(points.size(), -1);
  const auto assign_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      auto cell = grid.CellOf(points[i]);
      if (cell.has_value()) cells[i] = *cell;
    }
  };
  (pool != nullptr ? *pool : ThreadPool::Global())
      .ParallelForRange(n, assign_range);
  if (GEO_OBS_ON()) {
    const int64_t hits =
        std::count_if(cells.begin(), cells.end(),
                      [](int64_t c) { return c >= 0; });
    GEO_OBS_COUNT("spatial.fastpath_hits", hits);
  }
  return cells;
}

std::vector<DistancePair> DistanceJoin(const std::vector<Point>& left,
                                       const std::vector<Point>& right,
                                       double radius,
                                       const JoinOptions& options) {
  GEO_CHECK_GE(radius, 0.0);
  std::vector<StrTree::Entry> entries;
  entries.reserve(right.size());
  for (int64_t i = 0; i < static_cast<int64_t>(right.size()); ++i) {
    entries.push_back(
        {Envelope(right[i].x, right[i].y, right[i].x, right[i].y), i});
  }
  StrTree tree(std::move(entries), 10, options.pool);
  const double r2 = radius * radius;
  return RunProbes<DistancePair>(
      static_cast<int64_t>(left.size()), options,
      [&left, &right, &tree, r2, radius](int64_t li,
                                         std::vector<DistancePair>& out) {
        const Point& p = left[li];
        Envelope probe(p.x - radius, p.y - radius, p.x + radius,
                       p.y + radius);
        tree.Visit(probe, [&](int64_t ri) {
          const double dx = p.x - right[ri].x;
          const double dy = p.y - right[ri].y;
          if (dx * dx + dy * dy <= r2) out.push_back({li, ri});
        });
      });
}

std::vector<DistancePair> DistanceJoin(const std::vector<Point>& left,
                                       const std::vector<Point>& right,
                                       double radius) {
  return DistanceJoin(left, right, radius, JoinOptions{});
}

}  // namespace geotorch::spatial
