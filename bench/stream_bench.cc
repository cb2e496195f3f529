// Streaming pipeline sweep: event-to-prediction staleness versus
// sustained ingest throughput. Each level runs the full three-stage
// pipeline (synthetic ordered taxi stream → windowed ST-grid
// aggregation → online PeriodicalCnn prediction through a
// serve::Fleet) over a fixed span of dataset time, either paced to a
// target wall-clock event rate (GEOTORCH_STREAM_RATE's knob) or
// unthrottled so backpressure is the only brake. Sustained events/sec
// is admitted events over wall time; staleness is the predictor's
// per-window histogram (last event ingest → prediction resolved), so
// the unthrottled row exposes how far queueing pushes it once the
// producer outruns the aggregator. Only the median is reported: a level
// closes 24 windows, and a "p99" of 24 samples is their maximum, which
// one slow window moves by milliseconds. The dataset event rate per level is
// scaled to keep every run at the same window count — the levels
// differ in wall-clock pressure, not in stream shape. Writes a
// machine-readable report with --json=PATH (the committed
// BENCH_stream.json); --smoke shrinks the sweep for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/check.h"
#include "core/stopwatch.h"
#include "models/grid_models.h"
#include "obs/obs.h"
#include "serve/adapters.h"
#include "serve/config.h"
#include "serve/fleet.h"
#include "spatial/geometry.h"
#include "spatial/grid.h"
#include "stream/options.h"
#include "stream/pipeline.h"
#include "stream/taxi_source.h"
#include "synth/taxi.h"

namespace geotorch::bench {
namespace {

namespace models = ::geotorch::models;
namespace serve = ::geotorch::serve;
namespace spatial = ::geotorch::spatial;
namespace stream = ::geotorch::stream;
namespace synth = ::geotorch::synth;

constexpr int64_t kGridX = 12;
constexpr int64_t kGridY = 12;
constexpr int64_t kWindowSec = 600;
constexpr int64_t kTickSec = 60;

// One sweep level: pace the producer at target_eps wall events/sec
// (0 = unthrottled) over a taxi stream emitting dataset_eps events per
// dataset second for duration_sec of dataset time. dataset_eps is
// chosen so the throttled levels finish in a few wall seconds while
// every level closes the same number of windows.
struct RateLevel {
  const char* name;
  int64_t target_eps;
  double dataset_eps;
  int64_t duration_sec;
};

struct Record {
  std::string level;
  int64_t target_eps = 0;
  int64_t events = 0;
  double seconds = 0.0;
  double sustained_eps = 0.0;
  int64_t windows = 0;
  int64_t predictions_ok = 0;
  int64_t predictions_failed = 0;
  int64_t staleness_p50_us = 0;
  int64_t index_rebuilds = 0;
  int64_t dropped_outside = 0;
};

// A PeriodicalCnn snapshot over the aggregator's 2-channel pickup/count
// frames; closeness-only stacks keep the warmup short.
serve::SnapshotFactory CnnFactory(models::GridModelConfig config) {
  return [config] {
    auto model = std::make_shared<models::PeriodicalCnn>(config);
    serve::ModelSnapshot snap;
    snap.owner = model;
    snap.forward = serve::GridForward(*model);
    snap.load = [](const std::string&) { return Status::OK(); };
    return snap;
  };
}

Record RunLevel(const RateLevel& level) {
  stream::StreamOptions opts;
  opts.window_sec = kWindowSec;
  opts.slide_sec = 0;  // tumbling
  opts.queue = 8192;
  opts.window_queue = 64;
  opts.len_closeness = 3;
  opts.len_period = 0;
  opts.len_trend = 0;
  opts.target_eps = level.target_eps;

  models::GridModelConfig config;
  config.channels = 2;
  config.height = kGridY;
  config.width = kGridX;
  config.len_closeness = opts.len_closeness;
  config.len_period = 0;
  config.len_trend = 0;
  config.hidden = 8;
  config.seed = 42;

  serve::FleetOptions fleet_opts;
  fleet_opts.replicas = 1;  // bench host has one hardware thread
  fleet_opts.tenant_qps = 0;
  fleet_opts.engine.max_batch = 4;
  fleet_opts.engine.max_queue = 64;
  fleet_opts.engine.warmup_batches = 1;
  serve::Fleet fleet(fleet_opts);
  GEO_CHECK(fleet
                .AddModel("taxi-cnn", CnnFactory(config),
                          serve::SampleSpec{
                              {opts.len_closeness * 2, kGridY, kGridX}, {}})
                .ok());

  synth::TaxiStreamConfig stream_config;
  stream_config.events_per_sec = level.dataset_eps;
  stream_config.duration_sec = level.duration_sec;
  stream_config.tick_sec = kTickSec;
  stream_config.seed = 17;
  stream::TaxiEventSource source(stream_config);
  spatial::GridPartitioner grid(stream_config.extent, kGridX, kGridY);

  stream::Pipeline pipeline(&source, &fleet, grid, "taxi-cnn", opts);
  Stopwatch timer;
  pipeline.Start();
  GEO_CHECK(pipeline.WaitFinished(/*timeout_ms=*/600000))
      << "level " << level.name << " did not drain";
  const double seconds = timer.ElapsedSeconds();
  pipeline.Stop();

  const stream::PipelineStats stats = pipeline.stats();
  GEO_CHECK_EQ(stats.events_processed, stats.events_ingested);
  GEO_CHECK_EQ(stats.windows_closed,
               stats.predictions_ok + stats.predictions_failed);

  std::vector<int64_t> staleness = pipeline.predictor().StalenessSamplesUs();
  std::sort(staleness.begin(), staleness.end());

  Record rec;
  rec.level = level.name;
  rec.target_eps = level.target_eps;
  rec.events = stats.events_ingested;
  rec.seconds = seconds;
  rec.sustained_eps = stats.events_ingested / std::max(seconds, 1e-9);
  rec.windows = stats.windows_closed;
  rec.predictions_ok = stats.predictions_ok;
  rec.predictions_failed = stats.predictions_failed;
  rec.staleness_p50_us = Percentile(staleness, 0.50);
  rec.index_rebuilds = stats.index_rebuilds;
  rec.dropped_outside = stats.dropped_outside;
  fleet.Shutdown();
  return rec;
}

void WriteJson(const std::string& path, const std::vector<Record>& records) {
  BenchJsonWriter json(path, "stream_bench");
  if (!json.ok()) return;
  std::FILE* f = json.stream();
  std::fprintf(f, "  \"window_sec\": %lld,\n",
               static_cast<long long>(kWindowSec));
  std::fprintf(f, "  \"grid\": [%lld, %lld],\n",
               static_cast<long long>(kGridY), static_cast<long long>(kGridX));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "    {\"level\": \"%s\", \"target_eps\": %lld, \"events\": %lld, "
        "\"seconds\": %.6f, \"sustained_eps\": %.1f, \"windows\": %lld, "
        "\"predictions_ok\": %lld, \"predictions_failed\": %lld, "
        "\"staleness_p50_us\": %lld, "
        "\"index_rebuilds\": %lld, \"dropped_outside\": %lld}%s\n",
        r.level.c_str(), static_cast<long long>(r.target_eps),
        static_cast<long long>(r.events), r.seconds, r.sustained_eps,
        static_cast<long long>(r.windows),
        static_cast<long long>(r.predictions_ok),
        static_cast<long long>(r.predictions_failed),
        static_cast<long long>(r.staleness_p50_us),
        static_cast<long long>(r.index_rebuilds),
        static_cast<long long>(r.dropped_outside),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  json.Finish();
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  // Every level spans the same dataset time (same window count); the
  // throttled levels scale the dataset event rate down so pacing, not
  // generation, dominates wall time.
  std::vector<RateLevel> levels;
  if (smoke) {
    levels = {
        {"eps_4k", 4000, 2.0, 3000},
        {"unthrottled", 0, 10.0, 3000},
    };
  } else {
    levels = {
        {"eps_2k", 2000, 0.4, 14400},
        {"eps_8k", 8000, 1.6, 14400},
        {"unthrottled", 0, 40.0, 14400},
    };
  }

  std::printf("stream_bench: staleness vs throughput "
              "(window=%llds, grid=%lldx%lld, tick=%llds)\n",
              static_cast<long long>(kWindowSec),
              static_cast<long long>(kGridY), static_cast<long long>(kGridX),
              static_cast<long long>(kTickSec));
  PrintRule();
  std::printf("%-12s %10s %10s %12s %8s %12s\n", "level", "target",
              "events", "sustained", "windows", "stale p50");
  PrintRule();

  std::vector<Record> records;
  for (const RateLevel& level : levels) {
    Record rec = RunLevel(level);
    std::printf("%-12s %10lld %10lld %10.0f/s %8lld %10lldus\n",
                rec.level.c_str(), static_cast<long long>(rec.target_eps),
                static_cast<long long>(rec.events), rec.sustained_eps,
                static_cast<long long>(rec.windows),
                static_cast<long long>(rec.staleness_p50_us));
    records.push_back(std::move(rec));
  }
  PrintRule();

  if (!json_path.empty()) WriteJson(json_path, records);
  return 0;
}

}  // namespace
}  // namespace geotorch::bench

int main(int argc, char** argv) {
  return geotorch::bench::Main(argc, argv);
}
