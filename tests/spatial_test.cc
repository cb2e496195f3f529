#include "spatial/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "spatial/grid.h"
#include "spatial/join.h"
#include "spatial/strtree.h"

namespace geotorch::spatial {
namespace {

TEST(EnvelopeTest, EmptyAndExpand) {
  Envelope e = Envelope::Empty();
  EXPECT_TRUE(e.IsEmpty());
  e.ExpandToInclude(Point{1, 2});
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_TRUE(e.Contains(Point{1, 2}));
  e.ExpandToInclude(Point{-1, 5});
  EXPECT_EQ(e.min_x(), -1);
  EXPECT_EQ(e.max_y(), 5);
  EXPECT_TRUE(e.Contains(Point{0, 3}));
}

TEST(EnvelopeTest, IntersectsAndContains) {
  Envelope a(0, 0, 10, 10);
  Envelope b(5, 5, 15, 15);
  Envelope c(11, 11, 12, 12);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(Envelope(1, 1, 9, 9)));
  EXPECT_FALSE(a.Contains(b));
}

TEST(PolygonTest, ContainsConvex) {
  Polygon square({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  EXPECT_TRUE(square.Contains(Point{2, 2}));
  EXPECT_FALSE(square.Contains(Point{5, 2}));
  EXPECT_FALSE(square.Contains(Point{-1, -1}));
  EXPECT_NEAR(square.Area(), 16.0, 1e-9);
}

TEST(PolygonTest, ContainsConcave) {
  // L-shape.
  Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(l.Contains(Point{1, 3}));
  EXPECT_TRUE(l.Contains(Point{3, 1}));
  EXPECT_FALSE(l.Contains(Point{3, 3}));  // the notch
  EXPECT_NEAR(l.Area(), 12.0, 1e-9);
}

TEST(GeometryTest, Haversine) {
  // NYC to LA is about 3940 km.
  const double d = HaversineMeters(Point{-74.006, 40.7128},
                                   Point{-118.2437, 34.0522});
  EXPECT_NEAR(d, 3.94e6, 5e4);
  EXPECT_NEAR(HaversineMeters(Point{0, 0}, Point{0, 0}), 0.0, 1e-9);
}

TEST(GridPartitionerTest, CellAssignment) {
  GridPartitioner grid(Envelope(0, 0, 12, 16), 12, 16);
  EXPECT_EQ(grid.NumCells(), 192);
  EXPECT_EQ(*grid.CellOf(Point{0.5, 0.5}), 0);
  EXPECT_EQ(*grid.CellOf(Point{11.5, 0.5}), 11);
  EXPECT_EQ(*grid.CellOf(Point{0.5, 1.5}), 12);
  // Max-edge points clamp into the last cell.
  EXPECT_EQ(*grid.CellOf(Point{12.0, 16.0}), 191);
  EXPECT_FALSE(grid.CellOf(Point{12.1, 0}).has_value());
}

TEST(GridPartitionerTest, CellEnvelopeRoundTrips) {
  GridPartitioner grid(Envelope(-74.05, 40.6, -73.75, 40.9), 12, 16);
  for (int64_t c = 0; c < grid.NumCells(); c += 17) {
    const Envelope env = grid.CellEnvelope(c);
    EXPECT_EQ(*grid.CellOf(env.center()), c);
  }
}

TEST(GridPartitionerTest, Neighbors) {
  GridPartitioner grid(Envelope(0, 0, 4, 4), 4, 4);
  EXPECT_EQ(grid.NeighborCells(0).size(), 3u);   // corner
  EXPECT_EQ(grid.NeighborCells(1).size(), 5u);   // edge
  EXPECT_EQ(grid.NeighborCells(5).size(), 8u);   // interior
}

TEST(StrTreeTest, QueryMatchesBruteForce) {
  Rng rng(42);
  std::vector<StrTree::Entry> entries;
  for (int64_t i = 0; i < 200; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    entries.push_back({Envelope(x, y, x + rng.Uniform(0, 5),
                                y + rng.Uniform(0, 5)),
                       i});
  }
  StrTree tree(entries);
  EXPECT_EQ(tree.size(), 200);

  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    Envelope query(x, y, x + 10, y + 10);
    std::vector<int64_t> got = tree.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (const auto& e : entries) {
      if (e.envelope.Intersects(query)) want.push_back(e.id);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(StrTreeTest, EmptyTree) {
  StrTree tree({});
  EXPECT_TRUE(tree.Query(Envelope(0, 0, 1, 1)).empty());
}

TEST(StrTreeTest, SingleEntry) {
  StrTree tree({{Envelope(0, 0, 1, 1), 7}});
  EXPECT_EQ(tree.Query(Envelope(0.5, 0.5, 2, 2)),
            (std::vector<int64_t>{7}));
  EXPECT_TRUE(tree.Query(Envelope(2, 2, 3, 3)).empty());
}

TEST(JoinTest, StrategiesAgreeOnInteriorPoints) {
  Rng rng(3);
  GridPartitioner grid(Envelope(0, 0, 10, 10), 5, 5);
  std::vector<Polygon> cells = grid.CellPolygons();
  std::vector<Point> points;
  for (int i = 0; i < 300; ++i) {
    // Interior points (avoid cell boundaries where closed-polygon and
    // half-open-cell semantics legitimately differ).
    const int64_t cell = rng.UniformInt(0, grid.NumCells() - 1);
    const Envelope env = grid.CellEnvelope(cell);
    points.push_back(Point{
        rng.Uniform(env.min_x() + 0.01, env.max_x() - 0.01),
        rng.Uniform(env.min_y() + 0.01, env.max_y() - 0.01)});
  }
  auto nested =
      PointInPolygonJoin(points, cells, JoinStrategy::kNestedLoop);
  auto indexed = PointInPolygonJoin(points, cells, JoinStrategy::kStrTree);
  auto hashed =
      PointInPolygonJoin(points, cells, JoinStrategy::kGridHash, &grid);

  auto normalize = [](std::vector<JoinPair> pairs) {
    std::sort(pairs.begin(), pairs.end(),
              [](const JoinPair& a, const JoinPair& b) {
                return std::tie(a.point_idx, a.polygon_idx) <
                       std::tie(b.point_idx, b.polygon_idx);
              });
    return pairs;
  };
  auto n = normalize(nested);
  auto i = normalize(indexed);
  auto h = normalize(hashed);
  ASSERT_EQ(n.size(), points.size());
  ASSERT_EQ(i.size(), n.size());
  ASSERT_EQ(h.size(), n.size());
  for (size_t k = 0; k < n.size(); ++k) {
    EXPECT_EQ(n[k].polygon_idx, i[k].polygon_idx);
    EXPECT_EQ(n[k].polygon_idx, h[k].polygon_idx);
  }
}

TEST(JoinTest, AssignPointsToCellsHandlesOutside) {
  GridPartitioner grid(Envelope(0, 0, 2, 2), 2, 2);
  std::vector<Point> points = {{0.5, 0.5}, {1.5, 1.5}, {5, 5}};
  auto cells = AssignPointsToCells(points, grid);
  EXPECT_EQ(cells[0], 0);
  EXPECT_EQ(cells[1], 3);
  EXPECT_EQ(cells[2], -1);
}

std::vector<StrTree::Entry> RandomEntries(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<StrTree::Entry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    entries.push_back({Envelope(x, y, x + rng.Uniform(0, 4),
                                y + rng.Uniform(0, 4)),
                       i});
  }
  return entries;
}

TEST(StrTreeTest, ParallelBuildIdenticalToSerial) {
  ThreadPool pool(4);
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{9}, int64_t{100},
                    int64_t{5000}, int64_t{20000}}) {
    for (int cap : {2, 10}) {
      auto entries = RandomEntries(n, static_cast<uint64_t>(n + cap));
      const StrTree serial = [&] {
        DeviceGuard guard(Device::kSerial);
        return StrTree(entries, cap, &pool);
      }();
      StrTree parallel(entries, cap, &pool);
      EXPECT_TRUE(serial.IdenticalTo(parallel))
          << "n=" << n << " cap=" << cap;
      EXPECT_TRUE(parallel.IdenticalTo(serial));
    }
  }
}

TEST(StrTreeTest, ParallelBuildQueriesMatchBruteForce) {
  ThreadPool pool(3);
  auto entries = RandomEntries(3000, 11);
  StrTree tree(entries, 10, &pool);
  Rng rng(5);
  for (int q = 0; q < 25; ++q) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    Envelope query(x, y, x + 7, y + 7);
    auto got = tree.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (const auto& e : entries) {
      if (e.envelope.Intersects(query)) want.push_back(e.id);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(StrTreeTest, IdenticalToDetectsDifferences) {
  auto entries = RandomEntries(300, 3);
  StrTree a(entries, 10);
  StrTree b(entries, 4);                    // different capacity
  StrTree c(RandomEntries(300, 4), 10);     // different entries
  EXPECT_FALSE(a.IdenticalTo(b));
  EXPECT_FALSE(a.IdenticalTo(c));
  EXPECT_TRUE(a.IdenticalTo(a));
}

TEST(JoinTest, AutoStrategyPicksGridWhenAvailable) {
  Rng rng(8);
  GridPartitioner grid(Envelope(0, 0, 10, 10), 4, 4);
  std::vector<Polygon> cells = grid.CellPolygons();
  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.Uniform(0.01, 9.99), rng.Uniform(0.01, 9.99)});
  }
  JoinOptions auto_opts;  // kAuto
  auto with_grid = PointInPolygonJoin(points, cells, auto_opts, &grid);
  auto explicit_grid =
      PointInPolygonJoin(points, cells, JoinStrategy::kGridHash, &grid);
  EXPECT_EQ(with_grid, explicit_grid);
  auto without_grid = PointInPolygonJoin(points, cells, auto_opts, nullptr);
  auto explicit_tree =
      PointInPolygonJoin(points, cells, JoinStrategy::kStrTree);
  EXPECT_EQ(without_grid, explicit_tree);
}

TEST(JoinTest, ParallelAssignMatchesSerial) {
  Rng rng(13);
  GridPartitioner grid(Envelope(0, 0, 50, 50), 10, 10);
  std::vector<Point> points;
  for (int i = 0; i < 20000; ++i) {
    // Include points outside the extent.
    points.push_back({rng.Uniform(-5, 55), rng.Uniform(-5, 55)});
  }
  ThreadPool pool(4);
  const auto serial = [&] {
    DeviceGuard guard(Device::kSerial);
    return AssignPointsToCells(points, grid, &pool);
  }();
  auto parallel = AssignPointsToCells(points, grid, &pool);
  EXPECT_EQ(serial, parallel);
}

TEST(JoinTest, DistanceJoinParallelMatchesSerial) {
  Rng rng(21);
  std::vector<Point> left;
  std::vector<Point> right;
  for (int i = 0; i < 800; ++i) {
    left.push_back({rng.Uniform(0, 20), rng.Uniform(0, 20)});
    right.push_back({rng.Uniform(0, 20), rng.Uniform(0, 20)});
  }
  ThreadPool pool(3);
  JoinOptions opts;
  opts.pool = &pool;
  const auto serial = [&] {
    DeviceGuard guard(Device::kSerial);
    return DistanceJoin(left, right, 0.8, opts);
  }();
  auto parallel = DistanceJoin(left, right, 0.8, opts);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(JoinTest, StrTreeJoinSerialOptionMatchesParallel) {
  // The serial device keeps the probes on the calling thread and must
  // produce the same pairs in the same order.
  Rng rng(30);
  GridPartitioner grid(Envelope(0, 0, 10, 10), 5, 5);
  std::vector<Polygon> cells = grid.CellPolygons();
  std::vector<Point> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back({rng.Uniform(0.01, 9.99), rng.Uniform(0.01, 9.99)});
  }
  ThreadPool pool(4);
  JoinOptions opts;
  opts.strategy = JoinStrategy::kStrTree;
  opts.pool = &pool;
  auto with_parallel = PointInPolygonJoin(points, cells, opts);
  DeviceGuard guard(Device::kSerial);
  auto serial = PointInPolygonJoin(points, cells, opts);
  EXPECT_EQ(with_parallel, serial);
}

}  // namespace
}  // namespace geotorch::spatial
