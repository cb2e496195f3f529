// Reproduces Fig. 8: elapsed time and peak memory of grid-based
// spatiotemporal tensor preparation, GeoTorchAI preprocessing module
// vs the GeoPandas-style baseline, over growing record counts. The
// paper sweeps 1.4M / 14M / 100M / 250M records and sees GeoPandas
// blow up in time and memory, OOMing on the largest input while
// GeoTorchAI stays flat; this harness reproduces that shape at a
// laptop-scaled sweep (x100 smaller by default; --scale=paper runs the
// two smaller paper sizes).
//
// Memory is the engines' logical-bytes accounting (both sides use the
// same accounting; see DESIGN.md §6); the baseline's simulated heap
// budget makes the largest run fail with OOM like GeoPandas does.
//
// The out-of-core sweep at the end re-runs the pipeline under a
// PartitionStore resident budget *below* the dataset size: partitions
// spill to GTDF files and fault back in on demand, the run completes
// with bounded peak resident bytes, and the RAM-only baseline given the
// same budget OOMs (DESIGN.md §12). The CSV ingest row times ReadCsv,
// the first stage of the geobench prep pass, serially and partitioned on
// the pool; the group-by row times the Fig-8 aggregation at the prep
// pass's shape. --json=PATH writes BENCH_df.json; --smoke shrinks the
// sweep for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/geopandas_like.h"
#include "bench/bench_util.h"
#include "core/memory.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "df/csv.h"
#include "df/dataframe.h"
#include "df/partition_store.h"
#include "obs/obs.h"
#include "prep/st_manager.h"
#include "synth/taxi.h"
#include "tensor/ops.h"

namespace geotorch::bench {
namespace {

namespace ts = ::geotorch::tensor;

struct RunOutcome {
  double seconds = 0.0;
  double peak_mb = 0.0;
  bool oom = false;
};

// The Fig-8 feature channels: a point per record, then pickup and
// dropoff indicators. The input frame is not retained, as in Spark
// (narrow dependencies are dropped once consumed).
df::DataFrame Fig8Channels(df::DataFrame raw) {
  df::DataFrame with_points =
      prep::STManager::AddSpatialPoints(raw, "lat", "lon", "point");
  raw = df::DataFrame();
  const int pickup_idx = with_points.schema().FieldIndex("is_pickup");
  return with_points
      .WithColumn("pu", df::DataType::kDouble,
                  [pickup_idx](const df::RowView& row) -> df::Value {
                    return static_cast<double>(row.GetInt64(pickup_idx));
                  })
      .WithColumn("do", df::DataType::kDouble,
                  [pickup_idx](const df::RowView& row) -> df::Value {
                    return 1.0 - static_cast<double>(row.GetInt64(pickup_idx));
                  });
}

// Pickups and dropoffs per (cell, 30-minute step).
prep::StGridSpec Fig8Spec(int cells_x, int cells_y) {
  prep::StGridSpec spec;
  spec.partitions_x = cells_x;
  spec.partitions_y = cells_y;
  spec.step_duration_sec = 1800;
  spec.aggs = {{df::AggKind::kSum, "pu", "pickups"},
               {df::AggKind::kSum, "do", "dropoffs"}};
  return spec;
}

RunOutcome RunGeoTorch(const std::vector<synth::TripRecord>& trips,
                       int num_partitions = 4) {
  MemoryTracker& tracker = MemoryTracker::Global();
  tracker.Reset();
  Stopwatch timer;
  df::DataFrame channels =
      Fig8Channels(synth::TripsToDataFrame(trips, num_partitions));
  prep::StGridResult result =
      prep::STManager::GetStGridDataFrame(channels, Fig8Spec(12, 16));
  ts::Tensor tensor =
      prep::STManager::GetStGridTensor(result, {"pickups", "dropoffs"});
  RunOutcome outcome;
  outcome.seconds = timer.ElapsedSeconds();
  outcome.peak_mb = static_cast<double>(tracker.peak_bytes()) / (1 << 20);
  // Sanity: every trip landed in the tensor.
  if (static_cast<int64_t>(ts::SumAll(tensor)) !=
      static_cast<int64_t>(trips.size())) {
    std::printf("WARNING: tensor mass mismatch\n");
  }
  return outcome;
}

// One out-of-core run: the same pipeline under a PartitionStore budget
// smaller than the dataset, so cold partitions spill to GTDF and fault
// back in on demand. The headline claim is the bound: the store's peak
// resident bytes never exceed budget + the partitions concurrently
// pinned by workers (one input + one output per worker — the "±1
// partition" allowance of the admission policy).
struct SpillOutcome {
  double seconds = 0.0;
  int64_t dataset_bytes = 0;   ///< widest intermediate frame, unrestricted
  int64_t budget_bytes = 0;
  int64_t peak_resident = 0;
  int64_t bound_bytes = 0;
  int64_t spills = 0;
  int64_t faults = 0;
  int64_t spill_bytes = 0;
  bool bounded = false;
  bool mass_ok = false;
};

SpillOutcome RunOutOfCore(const std::vector<synth::TripRecord>& trips,
                          int num_partitions, double budget_fraction) {
  df::PartitionStore& store = df::PartitionStore::Global();
  const df::PartitionStore::Options saved = store.options();

  SpillOutcome out;
  {
    // Size the widest intermediate (points + derived channels) with no
    // budget; this is what a RAM-only engine must hold at once.
    df::DataFrame raw = synth::TripsToDataFrame(trips, num_partitions);
    df::DataFrame with_points =
        prep::STManager::AddSpatialPoints(raw, "lat", "lon", "point");
    out.dataset_bytes =
        with_points.ByteSize() +
        2 * static_cast<int64_t>(sizeof(double)) * with_points.NumRows();
  }

  df::PartitionStore::Options opts;
  opts.resident_budget_bytes = std::max<int64_t>(
      1 << 20, static_cast<int64_t>(budget_fraction *
                                    static_cast<double>(out.dataset_bytes)));
  opts.spill_dir = "geotorch_spill_fig8";
  store.Configure(opts);
  store.ResetPeak();
  const df::PartitionStore::Stats before = store.GetStats();
  out.budget_bytes = opts.resident_budget_bytes;

  {
    Stopwatch timer;
    df::DataFrame channels =
        Fig8Channels(synth::TripsToDataFrame(trips, num_partitions));
    prep::StGridResult result =
        prep::STManager::GetStGridDataFrame(channels, Fig8Spec(12, 16));
    ts::Tensor tensor =
        prep::STManager::GetStGridTensor(result, {"pickups", "dropoffs"});
    out.seconds = timer.ElapsedSeconds();
    out.mass_ok = static_cast<int64_t>(ts::SumAll(tensor)) ==
                  static_cast<int64_t>(trips.size());
  }

  const df::PartitionStore::Stats after = store.GetStats();
  out.peak_resident = after.peak_resident_bytes;
  out.spills = after.spill_count - before.spill_count;
  out.faults = after.fault_count - before.fault_count;
  out.spill_bytes = after.spill_bytes - before.spill_bytes;
  // Widest frame per partition, doubled (one pinned input + one output
  // being built), per concurrent worker.
  const int64_t part_bytes = out.dataset_bytes / num_partitions;
  const int workers = std::max(1, ThreadPool::Global().num_threads());
  out.bound_bytes = out.budget_bytes + 2 * part_bytes * workers;
  out.bounded = out.peak_resident <= out.bound_bytes;

  store.Configure(saved);
  std::error_code ec;
  std::filesystem::remove_all(opts.spill_dir, ec);
  return out;
}

// ReadCsv of one taxi CSV, serial (rows_per_partition 0) and partitioned
// on the pool, each the median of alternating repeats.
struct IngestOutcome {
  int64_t records = 0;
  int64_t rows_per_partition = 0;
  double serial_s = 0.0;
  double partitioned_s = 0.0;
  bool rows_ok = false;
};

IngestOutcome RunCsvIngest(int64_t records, int64_t rows_per_partition) {
  synth::TaxiTripConfig config;
  config.num_records = records;
  config.seed = 7;
  const std::string path =
      (std::filesystem::temp_directory_path() / "fig8_csv_ingest.csv")
          .string();
  const df::DataFrame frame =
      synth::TripsToDataFrame(synth::GenerateTaxiTrips(config), 4);
  IngestOutcome out;
  out.records = records;
  out.rows_per_partition = rows_per_partition;
  if (!df::WriteCsv(frame, path).ok()) {
    std::printf("WARNING: cannot write %s\n", path.c_str());
    return out;
  }
  const auto time_read = [&](int64_t rows_per_part) {
    df::CsvReadOptions opts;
    opts.rows_per_partition = rows_per_part;
    Stopwatch timer;
    Result<df::DataFrame> read = df::ReadCsv(path, frame.schema(), opts);
    const double seconds = timer.ElapsedSeconds();
    out.rows_ok = out.rows_ok && read.ok() && read->NumRows() == records;
    return seconds;
  };
  out.rows_ok = true;
  std::vector<double> serial;
  std::vector<double> partitioned;
  time_read(0);  // warm-up: page cache and allocator
  time_read(rows_per_partition);
  for (int i = 0; i < 7; ++i) {
    serial.push_back(time_read(0));
    partitioned.push_back(time_read(rows_per_partition));
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.serial_s = median(serial);
  out.partitioned_s = median(partitioned);
  std::remove(path.c_str());
  return out;
}

// Total nanoseconds of the spans named `name` anywhere in the forest.
int64_t SpanNs(const std::vector<obs::SpanNode>& nodes,
               const std::string& name) {
  int64_t ns = 0;
  for (const obs::SpanNode& n : nodes) {
    if (n.name == name) ns += n.total_ns;
    ns += SpanNs(n.children, name);
  }
  return ns;
}

// The Fig-8 aggregation at geobench prep's shape: records in eight
// partitions, a 32x32 grid, pickups and dropoffs per 30-minute step.
// df.groupby and prep.st_grid are the obs spans of one
// GetStGridDataFrame, each the median of repeats after a warm-up.
struct GroupByOutcome {
  int64_t records = 0;
  int partitions = 0;
  int64_t groups = 0;
  double groupby_s = 0.0;
  double st_grid_s = 0.0;
  bool timed = false;  // false when observability is switched off
};

GroupByOutcome RunGroupBy(int64_t records) {
  synth::TaxiTripConfig config;
  config.num_records = records;
  config.seed = 1;
  GroupByOutcome out;
  out.records = records;
  out.partitions = 8;
  const df::DataFrame channels = Fig8Channels(synth::TripsToDataFrame(
      synth::GenerateTaxiTrips(config), out.partitions));
  const prep::StGridSpec spec = Fig8Spec(32, 32);
  out.groups =
      prep::STManager::GetStGridDataFrame(channels, spec).frame.NumRows();
  out.timed = obs::Enabled();
  std::vector<double> groupby;
  std::vector<double> st_grid;
  for (int rep = 0; rep < 7; ++rep) {
    obs::Reset();
    prep::STManager::GetStGridDataFrame(channels, spec);
    const std::vector<obs::SpanNode> spans = obs::AggregateSpans();
    groupby.push_back(SpanNs(spans, "df.groupby") * 1e-9);
    st_grid.push_back(SpanNs(spans, "prep.st_grid") * 1e-9);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.groupby_s = median(groupby);
  out.st_grid_s = median(st_grid);
  return out;
}

RunOutcome RunBaseline(const std::vector<synth::TripRecord>& trips,
                       int64_t memory_limit) {
  baseline::BaselineOptions options;
  options.partitions_x = 12;
  options.partitions_y = 16;
  options.step_duration_sec = 1800;
  options.memory_limit_bytes = memory_limit;
  baseline::BaselineOutcome outcome =
      baseline::GeoPandasLikePrepare(trips, options);
  RunOutcome run;
  run.seconds = outcome.elapsed_sec;
  run.peak_mb =
      static_cast<double>(outcome.peak_logical_bytes) / (1 << 20);
  run.oom = outcome.out_of_memory;
  return run;
}

void Run(const BenchArgs& args, const std::string& json_path, bool smoke) {
  // Laptop-scaled sweep (paper: 1.4M / 14M / 100M / 250M records). The
  // simulated heap budget plays the role of the testbed's 120 GB RAM,
  // scaled so the largest input OOMs the baseline like in the paper.
  std::vector<int64_t> sizes;
  int64_t budget;
  if (args.paper_scale) {
    sizes = {1400000, 14000000};
    budget = 6LL << 30;
  } else if (smoke) {
    sizes = {20000, 100000};
    budget = 30LL << 20;
  } else {
    sizes = {20000, 100000, 500000, 2500000};
    budget = 600LL << 20;  // 600 MB simulated heap
  }

  std::printf("FIG 8: Grid-Based Spatiotemporal Tensor Preparation\n");
  std::printf("(baseline heap budget: %lld MB)\n",
              static_cast<long long>(budget >> 20));
  PrintRule();
  std::printf("%-10s | %-12s %-12s | %-12s %-12s\n", "", "GeoTorch-CPP",
              "", "GeoPandas-like", "");
  std::printf("%-10s | %-12s %-12s | %-12s %-12s\n", "records", "time (s)",
              "peak (MB)", "time (s)", "peak (MB)");
  PrintRule();
  for (int64_t n : sizes) {
    synth::TaxiTripConfig config;
    config.num_records = n;
    config.duration_sec = 92LL * 24 * 3600;
    config.seed = 17;
    auto trips = synth::GenerateTaxiTrips(config);

    // Warm-up pass: the first allocation burst of a given size pays
    // kernel page-fault cost that later identical runs do not; running
    // both engines once untimed gives each a warm allocator.
    RunGeoTorch(trips);
    RunBaseline(trips, budget);

    RunOutcome ours = RunGeoTorch(trips);
    RunOutcome base = RunBaseline(trips, budget);

    char base_time[32];
    char base_mem[32];
    if (base.oom) {
      std::snprintf(base_time, sizeof(base_time), "OOM@%.2f", base.seconds);
      std::snprintf(base_mem, sizeof(base_mem), ">%lld",
                    static_cast<long long>(budget >> 20));
    } else {
      std::snprintf(base_time, sizeof(base_time), "%.2f", base.seconds);
      std::snprintf(base_mem, sizeof(base_mem), "%.1f", base.peak_mb);
    }
    std::printf("%-10lld | %-12.2f %-12.1f | %-12s %-12s\n",
                static_cast<long long>(n), ours.seconds, ours.peak_mb,
                base_time, base_mem);
  }
  PrintRule();
  std::printf("shape check: baseline time and memory grow steeply and OOM "
              "on the largest input;\nGeoTorch-CPP stays near-flat in "
              "memory (partitioned, no row objects).\n");

  // Partition-parallel scalability of the preprocessing pipeline: the
  // same prep (spatial join via the grid fast path + group-by +
  // scatter) over a growing partition count. Partitions are the unit
  // of parallel work, so this is the thread-sweep analogue of the
  // paper's cluster scaling (limited by the hardware threads of this
  // machine).
  const int64_t sweep_n = sizes[std::min<size_t>(1, sizes.size() - 1)];
  synth::TaxiTripConfig sweep_config;
  sweep_config.num_records = sweep_n;
  sweep_config.duration_sec = 92LL * 24 * 3600;
  sweep_config.seed = 17;
  auto sweep_trips = synth::GenerateTaxiTrips(sweep_config);
  std::printf("\nprep scalability vs partitions (%lld records, %u hw "
              "threads)\n",
              static_cast<long long>(sweep_n),
              std::max(1u, std::thread::hardware_concurrency()));
  PrintRule();
  // One run takes a few tens of ms, so each count is the median of
  // repeats after a warm-up, printed beside the fastest and slowest.
  std::printf("%-12s %-12s %-18s %-12s\n", "partitions", "median (s)",
              "min-max (s)", "speedup");
  PrintRule();
  double base_secs = 0.0;
  const std::vector<int> part_sweep =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (int p : part_sweep) {
    RunGeoTorch(sweep_trips, p);  // warm-up
    std::vector<double> secs;
    for (int rep = 0; rep < 7; ++rep) {
      secs.push_back(RunGeoTorch(sweep_trips, p).seconds);
    }
    std::sort(secs.begin(), secs.end());
    const double median = secs[secs.size() / 2];
    if (p == 1) base_secs = median;
    char spread[32];
    std::snprintf(spread, sizeof(spread), "%.3f-%.3f", secs.front(),
                  secs.back());
    std::printf("%-12d %-12.3f %-18s %-12.2f\n", p, median, spread,
                base_secs / median);
  }
  PrintRule();

  // Out-of-core sweep: same pipeline, resident budget below the dataset
  // size. The engine spills cold partitions to GTDF and completes with
  // peak resident bytes bounded by the budget plus pinned partitions; a
  // RAM-only engine given the same budget (the baseline's simulated
  // heap) dies with OOM.
  const int64_t spill_n = sweep_n;
  const int spill_parts = 16;
  std::printf("\nout-of-core: resident budget below dataset size "
              "(%lld records, %d partitions)\n",
              static_cast<long long>(spill_n), spill_parts);
  PrintRule();
  std::printf("%-10s %-10s %-10s %-10s %-8s %-8s %-9s %-9s\n", "budget%",
              "data MB", "budgetMB", "peak MB", "spills", "faults",
              "bounded", "baseline");
  PrintRule();
  struct SpillRow {
    double fraction;
    SpillOutcome oc;
    bool baseline_oom;
  };
  std::vector<SpillRow> spill_rows;
  for (double fraction : {0.5, 0.25}) {
    SpillOutcome oc = RunOutOfCore(sweep_trips, spill_parts, fraction);
    RunOutcome base = RunBaseline(sweep_trips, oc.budget_bytes);
    spill_rows.push_back({fraction, oc, base.oom});
    std::printf("%-10.0f %-10.1f %-10.1f %-10.1f %-8lld %-8lld %-9s %-9s\n",
                fraction * 100.0,
                static_cast<double>(oc.dataset_bytes) / (1 << 20),
                static_cast<double>(oc.budget_bytes) / (1 << 20),
                static_cast<double>(oc.peak_resident) / (1 << 20),
                static_cast<long long>(oc.spills),
                static_cast<long long>(oc.faults),
                oc.bounded ? "yes" : "NO",
                base.oom ? "OOM" : "survived");
    if (!oc.mass_ok) std::printf("WARNING: tensor mass mismatch\n");
    if (!oc.bounded) {
      std::printf("WARNING: peak resident %.1f MB exceeds bound %.1f MB\n",
                  static_cast<double>(oc.peak_resident) / (1 << 20),
                  static_cast<double>(oc.bound_bytes) / (1 << 20));
    }
  }
  PrintRule();

  // CSV ingest, geobench prep's first stage at its partition size.
  const IngestOutcome ingest =
      RunCsvIngest(smoke ? 100000 : 1000000, smoke ? 12500 : 125000);
  std::printf("\ncsv ingest: ReadCsv of %lld records (%d pool threads)\n",
              static_cast<long long>(ingest.records),
              ThreadPool::Global().num_threads());
  PrintRule();
  std::printf("%-28s %-12s\n", "rows_per_partition", "time (s)");
  PrintRule();
  std::printf("%-28s %-12.3f\n", "0 (serial)", ingest.serial_s);
  std::printf("%-28lld %-12.3f\n",
              static_cast<long long>(ingest.rows_per_partition),
              ingest.partitioned_s);
  PrintRule();
  if (!ingest.rows_ok) std::printf("WARNING: csv ingest row count mismatch\n");

  // The Fig-8 aggregation, geobench prep's largest stage.
  const GroupByOutcome groupby = RunGroupBy(smoke ? 100000 : 1000000);
  std::printf("\ngroup-by: GetStGridDataFrame of %lld records, %d "
              "partitions, %lld groups (%d pool threads)\n",
              static_cast<long long>(groupby.records), groupby.partitions,
              static_cast<long long>(groupby.groups),
              ThreadPool::Global().num_threads());
  PrintRule();
  if (groupby.timed) {
    std::printf("%-28s %-12.4f\n", "df.groupby (s)", groupby.groupby_s);
    std::printf("%-28s %-12.4f\n", "prep.st_grid (s)", groupby.st_grid_s);
  } else {
    std::printf("not timed: observability is off (GEOTORCH_OBS=0)\n");
  }
  PrintRule();

  if (!json_path.empty()) {
    BenchJsonWriter json(json_path, "fig8_tensor_prep");
    if (json.ok()) {
      std::FILE* f = json.stream();
      std::fprintf(f, "  \"records\": %lld,\n",
                   static_cast<long long>(spill_n));
      std::fprintf(f, "  \"spill_partitions\": %d,\n", spill_parts);
      std::fprintf(f, "  \"out_of_core\": [\n");
      for (size_t i = 0; i < spill_rows.size(); ++i) {
        const SpillRow& r = spill_rows[i];
        std::fprintf(
            f,
            "    {\"budget_fraction\": %.2f, \"dataset_mb\": %.2f, "
            "\"budget_mb\": %.2f, \"peak_resident_mb\": %.2f, "
            "\"bound_mb\": %.2f, \"bounded\": %s, \"spills\": %lld, "
            "\"faults\": %lld, \"spilled_mb\": %.2f, \"seconds\": %.3f, "
            "\"mass_ok\": %s, \"baseline_oom\": %s}%s\n",
            r.fraction,
            static_cast<double>(r.oc.dataset_bytes) / (1 << 20),
            static_cast<double>(r.oc.budget_bytes) / (1 << 20),
            static_cast<double>(r.oc.peak_resident) / (1 << 20),
            static_cast<double>(r.oc.bound_bytes) / (1 << 20),
            r.oc.bounded ? "true" : "false",
            static_cast<long long>(r.oc.spills),
            static_cast<long long>(r.oc.faults),
            static_cast<double>(r.oc.spill_bytes) / (1 << 20), r.oc.seconds,
            r.oc.mass_ok ? "true" : "false",
            r.baseline_oom ? "true" : "false",
            i + 1 < spill_rows.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(
          f,
          "  \"csv_ingest\": {\"records\": %lld, "
          "\"rows_per_partition\": %lld, \"serial_s\": %.4f, "
          "\"partitioned_s\": %.4f, \"speedup\": %.2f, "
          "\"hardware_threads\": %u, \"rows_ok\": %s},\n",
          static_cast<long long>(ingest.records),
          static_cast<long long>(ingest.rows_per_partition), ingest.serial_s,
          ingest.partitioned_s, ingest.serial_s / ingest.partitioned_s,
          std::max(1u, std::thread::hardware_concurrency()),
          ingest.rows_ok ? "true" : "false");
      char groupby_s[32] = "null";
      char st_grid_s[32] = "null";
      if (groupby.timed) {
        std::snprintf(groupby_s, sizeof(groupby_s), "%.4f",
                      groupby.groupby_s);
        std::snprintf(st_grid_s, sizeof(st_grid_s), "%.4f",
                      groupby.st_grid_s);
      }
      std::fprintf(
          f,
          "  \"groupby\": {\"records\": %lld, \"partitions\": %d, "
          "\"groups\": %lld, \"groupby_s\": %s, \"st_grid_s\": %s, "
          "\"hardware_threads\": %u},\n",
          static_cast<long long>(groupby.records), groupby.partitions,
          static_cast<long long>(groupby.groups), groupby_s, st_grid_s,
          std::max(1u, std::thread::hardware_concurrency()));
      json.Finish();
    }
  }
}

}  // namespace
}  // namespace geotorch::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  geotorch::bench::Run(geotorch::bench::BenchArgs::Parse(argc, argv),
                       json_path, smoke);
  return 0;
}
