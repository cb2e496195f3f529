// Ablation: spatial-join strategy and parallelism. The preprocessing
// module assigns points to grid cells; Sedona-style systems use an
// STR-tree, the naive baseline is a nested loop, and the module's
// uniform-grid fast path maps points to cells in O(1). This bench
// quantifies (a) why the strategy choice matters as the grid grows and
// (b) what the partition-parallel probe engine buys over the serial
// device's probe loop, sweeping worker counts. Writes a machine-readable summary with
// --json=PATH (the committed BENCH_spatial.json); --smoke shrinks the
// sweep for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "spatial/join.h"

namespace geotorch::bench {
namespace {

namespace sp = ::geotorch::spatial;

struct Record {
  int grid = 0;
  const char* strategy = "";
  const char* mode = "";  // "serial" or "parallel"
  int threads = 1;
  double seconds = 0.0;
  int64_t pairs = 0;
  double speedup_vs_serial = 1.0;
};

double TimeJoin(Device device, const std::vector<sp::Point>& points,
                const std::vector<sp::Polygon>& cells,
                const sp::GridPartitioner* grid, const sp::JoinOptions& opts,
                int iterations, std::vector<sp::JoinPair>* out) {
  DeviceGuard guard(device);
  double best = 1e30;
  for (int it = 0; it < iterations; ++it) {
    Stopwatch timer;
    *out = sp::PointInPolygonJoin(points, cells, opts, grid);
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

bool SameResult(const std::vector<sp::JoinPair>& a,
                const std::vector<sp::JoinPair>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

void WriteJson(const std::string& path, int64_t num_points,
               const std::vector<Record>& records, int largest_grid,
               double best_parallel_speedup, double grid_vs_tree) {
  BenchJsonWriter json(path, "ablation_spatial_join");
  if (!json.ok()) return;
  std::FILE* f = json.stream();
  std::fprintf(f, "  \"num_points\": %lld,\n",
               static_cast<long long>(num_points));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "    {\"grid\": %d, \"strategy\": \"%s\", \"mode\": "
                 "\"%s\", \"threads\": %d, \"seconds\": %.6f, \"pairs\": "
                 "%lld, \"speedup_vs_serial\": %.3f}%s\n",
                 r.grid, r.strategy, r.mode, r.threads, r.seconds,
                 static_cast<long long>(r.pairs), r.speedup_vs_serial,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"largest_grid\": %d,\n", largest_grid);
  std::fprintf(f, "    \"best_parallel_speedup_strtree\": %.3f,\n",
               best_parallel_speedup);
  std::fprintf(f, "    \"grid_fastpath_vs_strtree_serial\": %.3f\n",
               grid_vs_tree);
  std::fprintf(f, "  },\n");
  json.Finish();
}

void Run(const BenchArgs& args, const std::string& json_path, bool smoke) {
  const int64_t num_points =
      smoke ? 20000 : (args.paper_scale ? 2000000 : 400000);
  const std::vector<int> grids = smoke ? std::vector<int>{8}
                                       : std::vector<int>{16, 32};
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 4, 8};
  const int iterations = std::max(1, args.iterations);

  Rng rng(1);
  sp::Envelope extent(0, 0, 100, 100);
  std::vector<sp::Point> points;
  points.reserve(num_points);
  for (int64_t i = 0; i < num_points; ++i) {
    points.push_back(
        {rng.Uniform(0.001, 99.999), rng.Uniform(0.001, 99.999)});
  }

  std::printf("ABLATION: Point-in-Grid Spatial Join (%lld points, "
              "best of %d)\n",
              static_cast<long long>(num_points), iterations);
  PrintRule();
  std::printf("%-8s %-10s %-10s %-8s %-12s %-10s\n", "grid", "strategy",
              "mode", "threads", "time (s)", "speedup");
  PrintRule();

  std::vector<Record> records;
  double best_parallel_speedup = 0.0;
  double grid_vs_tree = 0.0;
  // Warm-up pass (allocator page faults).
  {
    sp::GridPartitioner warm_grid(extent, 8, 8);
    sp::PointInPolygonJoin(points, warm_grid.CellPolygons(),
                           sp::JoinStrategy::kStrTree);
  }
  for (int g : grids) {
    sp::GridPartitioner grid(extent, g, g);
    std::vector<sp::Polygon> cells = grid.CellPolygons();

    // Nested loop only on a subsample — it is quadratic-ish.
    const int64_t nested_points = std::min<int64_t>(num_points, 20000);
    std::vector<sp::Point> sample(points.begin(),
                                  points.begin() + nested_points);
    std::vector<sp::JoinPair> nested_out;
    sp::JoinOptions nested_opts;
    nested_opts.strategy = sp::JoinStrategy::kNestedLoop;
    const double nested_scaled =
        TimeJoin(Device::kSerial, sample, cells, nullptr, nested_opts, 1,
                 &nested_out) *
        static_cast<double>(num_points) / static_cast<double>(nested_points);
    std::printf("%2dx%-5d %-10s %-10s %-8s %-12.3f %-10s\n", g, g, "nested",
                "serial", "1", nested_scaled, "(extrapolated)");
    records.push_back({g, "nested", "serial", 1, nested_scaled,
                       static_cast<int64_t>(nested_out.size()) *
                           num_points / nested_points,
                       1.0});

    for (const char* strategy : {"strtree", "grid"}) {
      sp::JoinOptions serial_opts;
      serial_opts.strategy = std::strcmp(strategy, "strtree") == 0
                                 ? sp::JoinStrategy::kStrTree
                                 : sp::JoinStrategy::kGridHash;
      std::vector<sp::JoinPair> serial_out;
      const double serial_secs =
          TimeJoin(Device::kSerial, points, cells, &grid, serial_opts,
                   iterations, &serial_out);
      std::printf("%2dx%-5d %-10s %-10s %-8s %-12.3f %-10.2f\n", g, g,
                  strategy, "serial", "1", serial_secs, 1.0);
      records.push_back({g, strategy, "serial", 1, serial_secs,
                         static_cast<int64_t>(serial_out.size()), 1.0});

      for (int t : thread_counts) {
        ThreadPool pool(t);
        sp::JoinOptions par_opts = serial_opts;
        par_opts.pool = &pool;
        std::vector<sp::JoinPair> par_out;
        const double par_secs = TimeJoin(Device::kParallel, points, cells,
                                         &grid, par_opts, iterations, &par_out);
        if (!SameResult(serial_out, par_out)) {
          std::printf("WARNING: parallel result differs from serial "
                      "(%s, %d threads)\n",
                      strategy, t);
        }
        const double speedup = serial_secs / par_secs;
        std::printf("%2dx%-5d %-10s %-10s %-8d %-12.3f %-10.2f\n", g, g,
                    strategy, "parallel", t, par_secs, speedup);
        records.push_back({g, strategy, "parallel", t, par_secs,
                           static_cast<int64_t>(par_out.size()), speedup});
        if (std::strcmp(strategy, "strtree") == 0 && g == grids.back()) {
          best_parallel_speedup = std::max(best_parallel_speedup, speedup);
        }
      }
    }
    // Grid fast path vs STR-tree, both serial, at the largest grid.
    if (g == grids.back()) {
      double tree_serial = 0.0;
      double grid_serial = 0.0;
      for (const Record& r : records) {
        if (r.grid != g || std::strcmp(r.mode, "serial") != 0) continue;
        if (std::strcmp(r.strategy, "strtree") == 0) tree_serial = r.seconds;
        if (std::strcmp(r.strategy, "grid") == 0) grid_serial = r.seconds;
      }
      if (grid_serial > 0) grid_vs_tree = tree_serial / grid_serial;
    }
  }
  PrintRule();
  std::printf("largest grid: parallel STR-tree best speedup %.2fx; grid "
              "fast path %.2fx over serial STR-tree\n",
              best_parallel_speedup, grid_vs_tree);
  if (!json_path.empty()) {
    WriteJson(json_path, num_points, records, grids.back(),
              best_parallel_speedup, grid_vs_tree);
  }
  if (!args.trace_json.empty()) {
    geotorch::obs::WriteJsonFile(args.trace_json);
  }
}

}  // namespace
}  // namespace geotorch::bench

int main(int argc, char** argv) {
  auto args = geotorch::bench::BenchArgs::Parse(argc, argv);
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  geotorch::bench::Run(args, json_path, smoke);
  return 0;
}
