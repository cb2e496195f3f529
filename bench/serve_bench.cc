// Serving bench: every closed-loop serving measurement of the repo,
// driven through serve::Fleet (the path geobench `serve` and the
// stream pipeline use) by one client driver. Four row families, each
// an axis of that driver:
//
//   batching   grid models x clients x max_batch at one replica, plus
//              an int8 row: what dynamic batching buys over batch-1
//              serving (per-forward overhead amortization plus larger
//              GEMMs);
//   precision  SAT-6 classifiers (DeepSAT, SatCNN) at f32 and int8,
//              calibrated so int8 runs on static activation scales;
//   replicas   two grid models in one fleet, replicas x clients: the
//              router's cost and benefit;
//   reload     one model under load while the main thread hot-swaps
//              its checkpoint (Fleet::Reload).
//
// Exits 1 when any submit, AddModel or Reload fails — a reload that
// drops a request fails the run. Flags: --json=PATH (the committed
// BENCH_serve.json), --smoke shrinks every sweep for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/stopwatch.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/grid_models.h"
#include "models/raster_models.h"
#include "nn/precision.h"
#include "obs/obs.h"
#include "serve/adapters.h"
#include "serve/fleet.h"
#include "tensor/device.h"

namespace geotorch::bench {
namespace {

namespace data = ::geotorch::data;
namespace datasets = ::geotorch::datasets;
namespace io = ::geotorch::io;
namespace models = ::geotorch::models;
namespace nn = ::geotorch::nn;
namespace serve = ::geotorch::serve;
namespace ts = ::geotorch::tensor;

// Failed submits, AddModel and Reload calls of the whole run; main
// exits 1 when it is non-zero.
int64_t g_failures = 0;

void Fail(const std::string& what, const std::string& why) {
  std::printf("FAIL: %s: %s\n", what.c_str(), why.c_str());
  ++g_failures;
}

// One model as the fleet serves it: a replica factory per precision,
// the per-request input shapes, and the samples clients cycle through.
struct ServedModel {
  std::string name;
  std::function<serve::SnapshotFactory(nn::Precision)> factory;
  serve::SampleSpec spec;
  std::vector<data::Sample> samples;
  models::GridModelConfig config;  // grid models only: reload checkpoint shapes
};

void SetSamples(ServedModel& m, const data::Dataset& ds) {
  for (int64_t i = 0; i < std::min<int64_t>(ds.Size(), 64); ++i) {
    m.samples.push_back(ds.Get(i));
  }
  m.spec.x = m.samples[0].x.shape();
  for (const auto& e : m.samples[0].extras) m.spec.extras.push_back(e.shape());
}

// A Temperature grid predictor. Grid size moves the compute/dispatch
// balance batching lives on: small grids spend much of each forward on
// per-dispatch setup a batch amortizes, 16x16 grids are GEMM-bound.
// Replicas are hot-reloadable (state dict + panel re-derivation).
ServedModel TemperatureGrid(const std::string& kind, int64_t grid,
                            int64_t hidden) {
  datasets::GridDataset ds =
      datasets::MakeTemperature(/*timesteps=*/240, grid, grid, /*seed=*/7);
  ds.MinMaxNormalize();
  ServedModel m;
  m.name = kind + "-" + std::to_string(grid) + "x" + std::to_string(grid);
  m.config.channels = ds.channels();
  m.config.height = ds.height();
  m.config.width = ds.width();
  m.config.len_closeness = 3;
  m.config.len_period = 2;
  m.config.len_trend = 1;
  m.config.hidden = hidden;
  m.config.seed = 42;
  ds.SetPeriodicalRepresentation(m.config.len_closeness, m.config.len_period,
                                 m.config.len_trend);
  SetSamples(m, ds);
  m.factory = [kind, config = m.config](nn::Precision precision) {
    return serve::SnapshotFactory([kind, config, precision] {
      std::shared_ptr<models::GridModel> model;
      if (kind == "StResNet") {
        model = std::make_shared<models::StResNet>(config);
      } else {
        model = std::make_shared<models::PeriodicalCnn>(config);
      }
      serve::ModelSnapshot snap;
      snap.owner = model;
      snap.forward = serve::GridForward(*model, precision);
      snap.load = [model](const std::string& path) {
        Status st = io::LoadStateDict(*model, path);
        if (st.ok()) model->SetPrecision(model->precision());
        return st;
      };
      return snap;
    });
  };
  return m;
}

// A SAT-6 classifier with seeded weights (throughput does not depend on
// their values). Each replica is calibrated on `calib` before it
// serves, so its int8 forward uses static activation scales.
ServedModel Sat6Classifier(
    const std::string& name, const models::RasterModelConfig& config,
    const data::Dataset& ds,
    std::shared_ptr<const std::vector<data::Batch>> calib) {
  ServedModel m;
  m.name = name;
  SetSamples(m, ds);
  m.factory = [name, config, calib](nn::Precision precision) {
    return serve::SnapshotFactory([name, config, calib, precision] {
      std::shared_ptr<models::RasterClassifier> model;
      if (name == "SatCNN") {
        model = std::make_shared<models::SatCnn>(config);
      } else {
        model = std::make_shared<models::DeepSat>(config);
      }
      serve::ModelSnapshot snap;
      snap.owner = model;
      snap.forward = serve::ClassifierForward(*model, precision);
      // Calibrating forwards run f32 and record each layer's input
      // absmax.
      model->SetCalibrating(true);
      for (const data::Batch& batch : *calib) snap.forward(batch);
      model->SetCalibrating(false);
      return snap;
    });
  };
  return m;
}

// The fleet-wide knobs of one run.
struct FleetShape {
  int replicas = 1;
  int max_batch = 8;
  nn::Precision precision = nn::Precision::kF32;
};

// `clients` closed-loop threads submitting to `model`.
struct Load {
  const ServedModel* model;
  int clients;
};

struct Record {
  std::string family;
  std::string model;
  std::string precision;
  int replicas = 0;
  int max_batch = 0;
  int clients = 0;
  int64_t requests = 0;
  int64_t failed = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  double mean_batch = 0.0;
  int64_t batches = 0;
  double reload_ms = 0.0;  // reload rows only
  int64_t requests_during_reload = 0;
};

// Runs on the calling thread while the clients submit; gets the fleet
// and the running count of finished submits.
using During = std::function<void(serve::Fleet&, const std::atomic<int64_t>&)>;

// How long each client of a run keeps submitting: at least `requests`
// samples, and until `seconds` of wall time have passed since the
// start. A fixed wall time keeps fast rows long enough to rank: a
// fixed request count ends a 16-client batch-1 row in a few ms.
struct RunLength {
  int requests = 0;
  double seconds = 0.0;
};

// The client driver. One fleet serves every load's model; all loads'
// clients run at once, each submitting samples back to back for
// `length`. With `during` set, the driver waits for traffic to flow,
// runs it, and the clients keep submitting until it returns (and
// `length` has passed). Returns one record per load, its throughput
// timed from the common start to that model's last response.
std::vector<Record> Drive(const std::vector<Load>& loads,
                          const FleetShape& shape, const RunLength& length,
                          const During& during = nullptr) {
  serve::FleetOptions opts;
  opts.replicas = shape.replicas;
  opts.tenant_qps = 0;  // measure the router, not admission control
  opts.engine.max_batch = shape.max_batch;
  opts.engine.max_queue = 1024;
  opts.engine.warmup_batches = 2;
  opts.engine.precision = shape.precision;
  serve::Fleet fleet(opts);

  std::vector<Record> records(loads.size());
  for (size_t li = 0; li < loads.size(); ++li) {
    const ServedModel& m = *loads[li].model;
    Record& rec = records[li];
    rec.model = m.name;
    rec.precision = nn::PrecisionName(shape.precision);
    rec.replicas = shape.replicas;
    rec.max_batch = shape.max_batch;
    rec.clients = loads[li].clients;
    const Status st = fleet.AddModel(m.name, m.factory(shape.precision),
                                     m.spec);
    if (!st.ok()) {
      Fail("AddModel " + m.name, st.message());
      return records;
    }
  }

  struct Client {
    size_t load = 0;
    int index = 0;  // within its load
    std::vector<int64_t> latency_us;
    int64_t failed = 0;
    int64_t done_ns = 0;
  };
  std::vector<Client> clients;
  for (size_t li = 0; li < loads.size(); ++li) {
    for (int c = 0; c < loads[li].clients; ++c) {
      clients.push_back({li, c, {}, 0, 0});
    }
  }
  std::atomic<bool> busy{during != nullptr || length.seconds > 0.0};
  std::atomic<int64_t> finished{0};
  const int64_t start_ns = obs::NowNs();
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t ci = 0; ci < clients.size(); ++ci) {
    threads.emplace_back([&, ci] {
      Client& cl = clients[ci];
      const ServedModel& m = *loads[cl.load].model;
      for (int i = 0;
           i < length.requests || busy.load(std::memory_order_relaxed);
           ++i) {
        const data::Sample& s = m.samples[(cl.index + i) % m.samples.size()];
        const int64_t t0 = obs::NowNs();
        if (fleet.Submit(m.name, "bench", s).ok()) {
          cl.latency_us.push_back((obs::NowNs() - t0) / 1000);
        } else {
          ++cl.failed;
        }
        finished.fetch_add(1, std::memory_order_relaxed);
      }
      cl.done_ns = obs::NowNs();
    });
  }
  if (during) {
    while (finished.load() < 16) std::this_thread::yield();
    during(fleet, finished);
  }
  if (length.seconds > 0.0) {
    const int64_t end_ns =
        start_ns + static_cast<int64_t>(length.seconds * 1e9);
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(end_ns - obs::NowNs()));
  }
  busy.store(false);
  for (auto& t : threads) t.join();
  fleet.Shutdown();

  for (size_t li = 0; li < loads.size(); ++li) {
    Record& rec = records[li];
    std::vector<int64_t> all;
    int64_t last_ns = start_ns;
    for (const Client& cl : clients) {
      if (cl.load != li) continue;
      all.insert(all.end(), cl.latency_us.begin(), cl.latency_us.end());
      rec.failed += cl.failed;
      last_ns = std::max(last_ns, cl.done_ns);
    }
    rec.requests = static_cast<int64_t>(all.size());
    rec.seconds = static_cast<double>(last_ns - start_ns) * 1e-9;
    rec.throughput_rps = rec.requests / std::max(rec.seconds, 1e-9);
    std::sort(all.begin(), all.end());
    rec.p50_us = Percentile(all, 0.50);
    rec.p99_us = Percentile(all, 0.99);
    int64_t accepted = 0;
    for (const serve::EngineStats& s : fleet.ReplicaStats(rec.model)) {
      accepted += s.requests;
      rec.batches += s.batches;
    }
    rec.mean_batch = rec.batches > 0
                         ? static_cast<double>(accepted) / rec.batches
                         : 0.0;
    if (rec.failed > 0) {
      Fail(rec.model, std::to_string(rec.failed) + " submits failed");
    }
  }
  return records;
}

// Hosts jitter by ~10% run to run, the order of the effects measured.
// Runs the loads under each of `shapes` `reps` times, interleaving the
// shapes so that a burst of load on the host hits them alike, and
// returns per shape the run with the median total throughput.
std::vector<std::vector<Record>> DriveMedian(
    int reps, const std::vector<Load>& loads,
    const std::vector<FleetShape>& shapes, const RunLength& length) {
  using Run = std::pair<double, std::vector<Record>>;
  std::vector<std::vector<Run>> runs(shapes.size());
  for (int r = 0; r < reps; ++r) {
    for (size_t si = 0; si < shapes.size(); ++si) {
      std::vector<Record> run = Drive(loads, shapes[si], length);
      double rps = 0.0;
      for (const Record& rec : run) rps += rec.throughput_rps;
      runs[si].emplace_back(rps, std::move(run));
    }
  }
  std::vector<std::vector<Record>> medians;
  for (std::vector<Run>& shape_runs : runs) {
    std::sort(shape_runs.begin(), shape_runs.end(),
              [](const Run& x, const Run& y) { return x.first < y.first; });
    medians.push_back(std::move(shape_runs[shape_runs.size() / 2].second));
  }
  return medians;
}

void PrintRecord(const Record& r) {
  std::printf("%-10s %-20s %-5s %-5d %-6d %-8d %-10.1f %-8lld %-8lld %-6.2f\n",
              r.family.c_str(), r.model.c_str(), r.precision.c_str(),
              r.replicas, r.max_batch, r.clients, r.throughput_rps,
              static_cast<long long>(r.p50_us),
              static_cast<long long>(r.p99_us), r.mean_batch);
}

// The largest throughput ratio of a row over its baseline row seen so
// far: the batching and int8 headlines.
struct Headline {
  Record row;
  double speedup = 0.0;

  void Offer(const Record& r, double base_rps) {
    if (base_rps > 0 && r.throughput_rps / base_rps > speedup) {
      row = r;
      speedup = r.throughput_rps / base_rps;
    }
  }
};

void WriteJson(const std::string& path, const std::vector<Record>& records,
               const std::vector<Record>& reloads, const Headline& batching,
               const Headline& int8) {
  BenchJsonWriter json(path, "serve_bench");
  if (!json.ok()) return;
  std::FILE* f = json.stream();
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "    {\"family\": \"%s\", \"model\": \"%s\", \"precision\": \"%s\", "
        "\"replicas\": %d, \"max_batch\": %d, \"clients\": %d, "
        "\"requests\": %lld, \"seconds\": %.6f, \"throughput_rps\": %.1f, "
        "\"p50_us\": %lld, \"p99_us\": %lld, \"mean_batch\": %.2f, "
        "\"batches\": %lld}%s\n",
        r.family.c_str(), r.model.c_str(), r.precision.c_str(), r.replicas,
        r.max_batch, r.clients, static_cast<long long>(r.requests), r.seconds,
        r.throughput_rps, static_cast<long long>(r.p50_us),
        static_cast<long long>(r.p99_us), r.mean_batch,
        static_cast<long long>(r.batches), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"reload_under_load\": [\n");
  for (size_t i = 0; i < reloads.size(); ++i) {
    const Record& r = reloads[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"replicas\": %d, \"clients\": %d, "
                 "\"reload_ms\": %.3f, \"requests_during_reload\": %lld, "
                 "\"dropped\": %lld}%s\n",
                 r.model.c_str(), r.replicas, r.clients, r.reload_ms,
                 static_cast<long long>(r.requests_during_reload),
                 static_cast<long long>(r.failed),
                 i + 1 < reloads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  for (const auto& [prefix, h] :
       {std::pair{"speedup", batching}, std::pair{"int8", int8}}) {
    if (h.speedup == 0.0) continue;
    std::fprintf(f,
                 "    \"%s_model\": \"%s\",\n    \"%s_clients\": %d,\n"
                 "    \"%s_max_batch\": %d,\n",
                 prefix, h.row.model.c_str(), prefix, h.row.clients, prefix,
                 h.row.max_batch);
  }
  std::fprintf(f, "    \"batching_speedup_vs_batch1\": %.3f,\n",
               batching.speedup);
  std::fprintf(f, "    \"int8_serving_speedup_vs_f32\": %.3f\n", int8.speedup);
  std::fprintf(f, "  },\n");
  json.Finish();
}

int Run(const BenchArgs& args, const std::string& json_path, bool smoke) {
  // Batching wins must come from the engine, not from thread-level
  // parallelism inside one forward, so pin the parallel backend and
  // report hardware_threads in the JSON for context.
  ts::DeviceGuard device(ts::Device::kParallel);

  const RunLength length = smoke ? RunLength{24, 0.0} : RunLength{0, 0.25};
  const int reps = smoke ? 1 : 3;

  std::vector<ServedModel> grids;
  grids.push_back(TemperatureGrid("PeriodicalCnn", 8, 8));
  grids.push_back(TemperatureGrid("PeriodicalCnn", 16, 16));
  if (!smoke) grids.push_back(TemperatureGrid("StResNet", 16, 16));

  // DeepSAT is the pure-MLP classifier: every FLOP of its forward is a
  // Linear GEMM, so it shows what int8 buys when the kernel dominates.
  // SatCNN is the conv-heavy counterpoint.
  datasets::RasterDatasetOptions dopts;
  dopts.include_additional_features = true;  // DeepSAT needs features
  const datasets::RasterClassificationDataset sat6 =
      datasets::MakeSat6(smoke ? 180 : 600, dopts, /*seed=*/3);
  const data::SubsetDataset calib_set(
      &sat6, data::ChronologicalSplit(sat6.Size()).val);
  auto calib = std::make_shared<std::vector<data::Batch>>();
  {
    data::DataLoader loader(&calib_set, /*batch_size=*/16, /*shuffle=*/false);
    data::Batch batch;
    while (loader.Next(&batch)) calib->push_back(batch);
  }
  models::RasterModelConfig mc;
  mc.in_channels = 4;
  mc.in_height = 28;
  mc.in_width = 28;
  mc.num_classes = 6;
  mc.num_filtered_features = sat6.num_additional_features();
  mc.base_filters = smoke ? 64 : 256;  // DeepSAT hidden = 4 * filters
  mc.seed = 17;
  std::vector<ServedModel> classifiers;
  classifiers.push_back(Sat6Classifier("DeepSAT", mc, sat6, calib));
  if (!smoke) {
    mc.base_filters = 16;
    classifiers.push_back(Sat6Classifier("SatCNN", mc, sat6, calib));
  }

  std::printf("SERVE BENCH: closed-loop clients through serve::Fleet "
              "(%d req/client min, %.2f s per run, median of %d runs)\n",
              length.requests, length.seconds, reps);
  PrintRule(92);
  std::printf("%-10s %-20s %-5s %-5s %-6s %-8s %-10s %-8s %-8s %-6s\n",
              "family", "model", "prec", "repl", "batch", "clients", "rps",
              "p50(us)", "p99(us)", "mean_b");
  PrintRule(92);
  std::vector<Record> records;
  // Appends and prints a run's rows; returns the first.
  auto add = [&records](const char* family, std::vector<Record> rows) {
    for (Record& r : rows) {
      r.family = family;
      PrintRecord(r);
      records.push_back(r);
    }
    return rows.front();
  };
  const nn::Precision kF32 = nn::Precision::kF32;
  const nn::Precision kInt8 = nn::Precision::kInt8;

  // Batching headline: the best batched row at >= 4 clients over the
  // batch-1 row of its model and clients. The win comes from amortizing
  // per-request engine overhead, so expect it where clients >=
  // max_batch keeps batches full.
  Headline batching;
  for (const ServedModel& m : grids) {
    for (int clients : smoke ? std::vector<int>{1, 4}
                             : std::vector<int>{1, 2, 4, 8, 16}) {
      std::vector<FleetShape> shapes;
      for (int max_batch : smoke ? std::vector<int>{1, 8}
                                 : std::vector<int>{1, 8, 16}) {
        shapes.push_back({1, max_batch, kF32});
      }
      // shapes[0] is the batch-1 row the others are compared against.
      const std::vector<std::vector<Record>> runs =
          DriveMedian(reps, {{&m, clients}}, shapes, length);
      const double batch1_rps = add("batching", runs[0]).throughput_rps;
      for (size_t si = 1; si < runs.size(); ++si) {
        const Record r = add("batching", runs[si]);
        if (clients >= 4) batching.Offer(r, batch1_rps);
      }
    }
  }
  // Grid models are conv-heavy, so int8 weights ride the GEMM's A side
  // and cannot be pre-packed: this row is int8's compute-only win.
  add("batching", DriveMedian(reps, {{&grids.front(), 4}}, {{1, 8, kInt8}},
                              length)
                      .front());

  // int8 headline: the classifier configuration whose int8 row gains
  // most over its f32 row.
  Headline int8;
  for (const ServedModel& m : classifiers) {
    for (int clients : smoke ? std::vector<int>{1} : std::vector<int>{1, 8}) {
      const std::vector<std::vector<Record>> runs = DriveMedian(
          reps, {{&m, clients}}, {{1, 16, kF32}, {1, 16, kInt8}}, length);
      const double f32_rps = add("precision", runs[0]).throughput_rps;
      int8.Offer(add("precision", runs[1]), f32_rps);
    }
  }

  // On a host without spare hardware threads extra replicas buy no
  // forward parallelism, so these rows price the router itself.
  const std::vector<int> replica_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  for (int replicas : replica_counts) {
    for (int clients : smoke ? std::vector<int>{2}
                             : std::vector<int>{2, 4, 8}) {
      add("replicas",
          DriveMedian(reps, {{&grids[0], clients}, {&grids[1], clients}},
                      {{replicas, 8, kF32}}, length)
              .front());
    }
  }
  PrintRule(92);

  // Reload under load: reload_ms is the whole copy-on-swap cycle
  // (shadow load per replica, swap, drain), requests_during_reload the
  // submits that finished while it ran.
  const ServedModel& reloaded = grids.front();
  const std::string ckpt_path = "serve_bench_reload.gtcp";
  {
    const models::PeriodicalCnn donor(reloaded.config);
    const Status st = io::SaveStateDict(donor, ckpt_path);
    if (!st.ok()) Fail("SaveStateDict " + ckpt_path, st.message());
  }
  std::printf("hot reload under load (model=%s)\n", reloaded.name.c_str());
  std::printf("%-9s %-8s %-12s %-16s %-8s\n", "replicas", "clients",
              "reload(ms)", "served during", "dropped");
  std::vector<Record> reloads;
  for (int replicas : replica_counts) {
    double reload_ms = 0.0;
    int64_t during = 0;
    std::vector<Record> run = Drive(
        {{&reloaded, smoke ? 2 : 4}}, {replicas, 8, kF32}, length,
        [&](serve::Fleet& fleet, const std::atomic<int64_t>& finished) {
          const int64_t before = finished.load();
          Stopwatch timer;
          const Status st = fleet.Reload(reloaded.name, ckpt_path);
          reload_ms = timer.ElapsedSeconds() * 1000.0;
          during = finished.load() - before;
          if (!st.ok()) Fail("Reload " + reloaded.name, st.message());
        });
    Record& rec = run.front();
    rec.family = "reload";
    rec.reload_ms = reload_ms;
    rec.requests_during_reload = during;
    std::printf("%-9d %-8d %-12.3f %-16lld %-8lld\n", rec.replicas,
                rec.clients, rec.reload_ms,
                static_cast<long long>(rec.requests_during_reload),
                static_cast<long long>(rec.failed));
    reloads.push_back(rec);
  }
  std::remove(ckpt_path.c_str());
  PrintRule(92);

  std::printf("dynamic batching (%s, max_batch=%d) vs batch 1 at %d "
              "clients: %.2fx\n",
              batching.row.model.c_str(), batching.row.max_batch,
              batching.row.clients, batching.speedup);
  std::printf("int8 serving (%s, clients=%d, max_batch=%d) vs f32: %.2fx\n",
              int8.row.model.c_str(), int8.row.clients, int8.row.max_batch,
              int8.speedup);

  if (!json_path.empty()) {
    WriteJson(json_path, records, reloads, batching, int8);
  }
  if (!args.trace_json.empty()) {
    geotorch::obs::WriteJsonFile(args.trace_json);
  }
  if (g_failures > 0) {
    std::printf("serve_bench: %lld failures\n",
                static_cast<long long>(g_failures));
    return 1;
  }
  return 0;
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
  return geotorch::bench::Run(args, json_path, smoke);
}
