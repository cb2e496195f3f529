// ThreadSanitizer coverage of the parallel spatial engine: threaded
// STR-tree bulk-loads, partition-parallel join probes, and the grid
// fast path, exercised concurrently from several client threads that
// share one pool (the worst case the preprocessing pipeline can
// produce). The `tsan` preset runs it under ThreadSanitizer; sizes are
// small because TSan is slow.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "spatial/join.h"
#include "spatial/strtree.h"

namespace geotorch::spatial {
namespace {

std::vector<StrTree::Entry> MakeEntries(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<StrTree::Entry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    entries.push_back({Envelope(x, y, x + 2, y + 2), i});
  }
  return entries;
}

std::vector<Point> MakePoints(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0.01, 99.99), rng.Uniform(0.01, 99.99)});
  }
  return points;
}

TEST(SpatialTsanTest, ConcurrentParallelBuilds) {
  ThreadPool pool(4);
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &pool] {
      auto entries = MakeEntries(4000, 7);
      StrTree serial(entries, 10, StrTree::BuildOptions{false, nullptr});
      StrTree parallel(std::move(entries), 10,
                       StrTree::BuildOptions{true, &pool});
      EXPECT_TRUE(parallel.IdenticalTo(serial)) << "client " << c;
    });
  }
  for (auto& t : clients) t.join();
}

TEST(SpatialTsanTest, ConcurrentParallelJoinsAndFastPath) {
  ThreadPool pool(4);
  GridPartitioner grid(Envelope(0, 0, 100, 100), 12, 12);
  const std::vector<Polygon> cells = grid.CellPolygons();
  const std::vector<Point> points = MakePoints(8000, 3);

  JoinOptions serial_opts;
  serial_opts.strategy = JoinStrategy::kStrTree;
  serial_opts.parallel = false;
  const auto expected_tree =
      PointInPolygonJoin(points, cells, serial_opts, &grid);
  const auto expected_cells =
      AssignPointsToCells(points, grid, /*parallel=*/false);

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      JoinOptions opts;
      opts.strategy = JoinStrategy::kStrTree;
      opts.parallel = true;
      opts.pool = &pool;
      const auto got = PointInPolygonJoin(points, cells, opts, &grid);
      EXPECT_EQ(got, expected_tree);
    });
  }
  clients.emplace_back([&] {
    const auto got = AssignPointsToCells(points, grid, true, &pool);
    EXPECT_EQ(got, expected_cells);
  });
  clients.emplace_back([&] {
    JoinOptions opts;
    opts.strategy = JoinStrategy::kGridHash;
    opts.parallel = true;
    opts.pool = &pool;
    const auto got = PointInPolygonJoin(points, cells, opts, &grid);
    ASSERT_EQ(got.size(), expected_cells.size());
  });
  for (auto& t : clients) t.join();
}

TEST(SpatialTsanTest, ParallelDistanceJoinSharedPool) {
  ThreadPool pool(3);
  const std::vector<Point> left = MakePoints(2000, 11);
  const std::vector<Point> right = MakePoints(2000, 13);
  JoinOptions serial_opts;
  serial_opts.parallel = false;
  const auto expected = DistanceJoin(left, right, 2.0, serial_opts);

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      JoinOptions opts;
      opts.parallel = true;
      opts.pool = &pool;
      EXPECT_EQ(DistanceJoin(left, right, 2.0, opts), expected);
    });
  }
  for (auto& t : clients) t.join();
}

}  // namespace
}  // namespace geotorch::spatial
