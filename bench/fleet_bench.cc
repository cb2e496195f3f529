// Fleet serving sweep: client concurrency x models x replica counts
// through one serve::Fleet — the least-loaded router in front of N
// dynamically-batching engines per model. On a single-hardware-thread
// host extra replicas buy no forward parallelism (engines time-slice
// one core), so the numbers quantify the ROUTER'S cost/benefit:
// per-request routing overhead, queue-depth balancing, and what a
// hot reload costs while traffic keeps flowing (measured separately).
// Writes a machine-readable report with --json=PATH (the committed
// BENCH_fleet.json); --smoke shrinks the sweep for CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/check.h"
#include "core/stopwatch.h"
#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/grid_models.h"
#include "obs/obs.h"
#include "serve/adapters.h"
#include "serve/config.h"
#include "serve/fleet.h"
#include "tensor/device.h"

namespace geotorch::bench {
namespace {

namespace data = ::geotorch::data;
namespace datasets = ::geotorch::datasets;
namespace io = ::geotorch::io;
namespace models = ::geotorch::models;
namespace serve = ::geotorch::serve;
namespace ts = ::geotorch::tensor;

struct ModelSpec {
  std::string name;
  models::GridModelConfig config;
  std::vector<data::Sample> samples;
  serve::SampleSpec spec;
};

ModelSpec MakeModelSpec(const std::string& name, int64_t grid,
                        int64_t hidden) {
  datasets::GridDataset ds = datasets::MakeTemperature(
      /*timesteps=*/240, grid, grid, /*seed=*/7);
  ds.MinMaxNormalize();
  ModelSpec m;
  m.name = name;
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
  for (int64_t i = 0; i < std::min<int64_t>(ds.Size(), 32); ++i) {
    m.samples.push_back(ds.Get(i));
  }
  m.spec.x = m.samples[0].x.shape();
  for (const auto& e : m.samples[0].extras) m.spec.extras.push_back(e.shape());
  return m;
}

// A hot-reloadable PeriodicalCnn snapshot: fresh module per replica,
// load = state dict + precision panel re-derivation.
serve::SnapshotFactory CnnFactory(models::GridModelConfig config) {
  return [config] {
    auto model = std::make_shared<models::PeriodicalCnn>(config);
    serve::ModelSnapshot snap;
    snap.owner = model;
    snap.forward = serve::GridForward(*model);
    snap.load = [model](const std::string& path) {
      Status st = io::LoadStateDict(*model, path);
      if (st.ok()) model->SetPrecision(model->precision());
      return st;
    };
    return snap;
  };
}

struct Record {
  std::string model;
  int replicas = 0;
  int clients = 0;
  int64_t requests = 0;
  double seconds = 0.0;
  double throughput_rps = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
};

serve::FleetOptions BenchFleetOptions(int replicas) {
  serve::FleetOptions opts;
  opts.replicas = replicas;
  opts.tenant_qps = 0;  // measure the router, not admission control
  opts.engine.max_batch = 8;
  opts.engine.max_delay_us = 200;
  opts.engine.max_queue = 1024;
  opts.engine.warmup_batches = 1;
  return opts;
}

// One fleet serving every model at `replicas` replicas; `clients`
// closed-loop threads PER MODEL submit back-to-back. Returns one
// record per model, its throughput timed from the common start to that
// model's last response.
std::vector<Record> RunOnce(const std::vector<ModelSpec>& zoo, int replicas,
                            int clients, int requests_per_client) {
  serve::Fleet fleet(BenchFleetOptions(replicas));
  for (const auto& m : zoo) {
    GEO_CHECK(fleet.AddModel(m.name, CnnFactory(m.config), m.spec).ok());
  }

  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(zoo.size()) * clients);
  std::vector<int64_t> done_ns(latencies.size());
  std::atomic<int64_t> errors{0};
  const int64_t start_ns = obs::NowNs();
  std::vector<std::thread> threads;
  for (size_t mi = 0; mi < zoo.size(); ++mi) {
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, mi, c] {
        const ModelSpec& m = zoo[mi];
        auto& lat = latencies[mi * clients + c];
        lat.reserve(requests_per_client);
        const std::string tenant = "client-" + std::to_string(c);
        for (int i = 0; i < requests_per_client; ++i) {
          const data::Sample& s =
              m.samples[(c * requests_per_client + i) % m.samples.size()];
          const int64_t t0 = obs::NowNs();
          auto r = fleet.Submit(m.name, tenant, s);
          if (!r.ok()) {
            errors.fetch_add(1);
            continue;
          }
          lat.push_back((obs::NowNs() - t0) / 1000);
        }
        done_ns[mi * clients + c] = obs::NowNs();
      });
    }
  }
  for (auto& t : threads) t.join();
  fleet.Shutdown();
  if (errors.load() > 0) {
    std::printf("WARNING: %lld submits failed\n",
                static_cast<long long>(errors.load()));
  }

  std::vector<Record> records;
  for (size_t mi = 0; mi < zoo.size(); ++mi) {
    Record rec;
    rec.model = zoo[mi].name;
    rec.replicas = replicas;
    rec.clients = clients;
    std::vector<int64_t> all;
    int64_t last_ns = start_ns;
    for (int c = 0; c < clients; ++c) {
      const auto& lat = latencies[mi * clients + c];
      all.insert(all.end(), lat.begin(), lat.end());
      last_ns = std::max(last_ns, done_ns[mi * clients + c]);
    }
    rec.requests = static_cast<int64_t>(all.size());
    rec.seconds = static_cast<double>(last_ns - start_ns) * 1e-9;
    rec.throughput_rps = rec.requests / std::max(rec.seconds, 1e-9);
    std::sort(all.begin(), all.end());
    rec.p50_us = Percentile(all, 0.50);
    rec.p99_us = Percentile(all, 0.99);
    records.push_back(rec);
  }
  return records;
}

struct ReloadRecord {
  int replicas = 0;
  int clients = 0;
  double reload_ms = 0.0;
  int64_t requests_during = 0;
  int64_t dropped = 0;
};

// Hot reload under sustained load: clients hammer one model while a
// checkpoint swap runs; reload_ms is the full copy-on-swap cycle
// (shadow load per replica + swap + drain), requests_during how many
// responses the fleet produced while the swap was in flight.
ReloadRecord RunReload(const ModelSpec& m, int replicas, int clients,
                       const std::string& ckpt_path) {
  serve::Fleet fleet(BenchFleetOptions(replicas));
  GEO_CHECK(fleet.AddModel(m.name, CnnFactory(m.config), m.spec).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> dropped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const data::Sample& s = m.samples[(c + i++) % m.samples.size()];
        if (fleet.Submit(m.name, "client", s).ok()) {
          served.fetch_add(1);
        } else {
          dropped.fetch_add(1);
        }
      }
    });
  }
  // Let traffic reach steady state before swapping.
  while (served.load() < 16) std::this_thread::yield();

  const int64_t before = served.load();
  Stopwatch timer;
  GEO_CHECK(fleet.Reload(m.name, ckpt_path).ok());
  const double reload_ms = timer.ElapsedSeconds() * 1000.0;
  const int64_t during = served.load() - before;

  stop.store(true);
  for (auto& t : threads) t.join();
  fleet.Shutdown();

  ReloadRecord rec;
  rec.replicas = replicas;
  rec.clients = clients;
  rec.reload_ms = reload_ms;
  rec.requests_during = during;
  rec.dropped = dropped.load();
  return rec;
}

void WriteJson(const std::string& path, const std::vector<Record>& records,
               const std::vector<ReloadRecord>& reloads) {
  BenchJsonWriter json(path, "fleet_bench");
  if (!json.ok()) return;
  std::FILE* f = json.stream();
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"replicas\": %d, \"clients\": %d, "
        "\"requests\": %lld, \"seconds\": %.6f, \"throughput_rps\": %.1f, "
        "\"p50_us\": %lld, \"p99_us\": %lld}%s\n",
        r.model.c_str(), r.replicas, r.clients,
        static_cast<long long>(r.requests), r.seconds, r.throughput_rps,
        static_cast<long long>(r.p50_us), static_cast<long long>(r.p99_us),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"reload_under_load\": [\n");
  for (size_t i = 0; i < reloads.size(); ++i) {
    const ReloadRecord& r = reloads[i];
    std::fprintf(f,
                 "    {\"replicas\": %d, \"clients\": %d, "
                 "\"reload_ms\": %.3f, \"requests_during_reload\": %lld, "
                 "\"dropped\": %lld}%s\n",
                 r.replicas, r.clients, r.reload_ms,
                 static_cast<long long>(r.requests_during),
                 static_cast<long long>(r.dropped),
                 i + 1 < reloads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  json.Finish();
}

void Run(const BenchArgs& args, const std::string& json_path, bool smoke) {
  (void)args;
  ts::DeviceGuard device(ts::Device::kParallel);

  const int requests_per_client = smoke ? 16 : 120;
  const std::vector<int> replica_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const std::vector<int> client_counts =
      smoke ? std::vector<int>{2} : std::vector<int>{2, 4, 8};

  std::vector<ModelSpec> zoo;
  zoo.push_back(MakeModelSpec("cnn-8x8", 8, 8));
  zoo.push_back(MakeModelSpec(smoke ? "cnn-8x8-wide" : "cnn-16x16",
                              smoke ? 8 : 16, smoke ? 16 : 16));

  std::printf("FLEET BENCH: %zu models, %d req/client/model\n", zoo.size(),
              requests_per_client);
  PrintRule();
  std::printf("%-14s %-9s %-8s %-12s %-9s %-9s\n", "model", "replicas",
              "clients", "rps", "p50(us)", "p99(us)");
  PrintRule();

  std::vector<Record> records;
  for (int replicas : replica_counts) {
    for (int clients : client_counts) {
      for (Record& rec :
           RunOnce(zoo, replicas, clients, requests_per_client)) {
        std::printf("%-14s %-9d %-8d %-12.1f %-9lld %-9lld\n",
                    rec.model.c_str(), rec.replicas, rec.clients,
                    rec.throughput_rps, static_cast<long long>(rec.p50_us),
                    static_cast<long long>(rec.p99_us));
        records.push_back(rec);
      }
    }
  }
  PrintRule();

  // Reload-under-load: a checkpoint with the zoo head's own shapes.
  const std::string ckpt_path = "fleet_bench_reload.ckpt";
  {
    models::PeriodicalCnn donor(zoo.front().config);
    GEO_CHECK(io::SaveStateDict(donor, ckpt_path).ok());
  }
  std::printf("hot reload under load (model=%s)\n", zoo.front().name.c_str());
  std::printf("%-9s %-8s %-12s %-16s %-8s\n", "replicas", "clients",
              "reload(ms)", "served during", "dropped");
  std::vector<ReloadRecord> reloads;
  for (int replicas : replica_counts) {
    ReloadRecord rec = RunReload(zoo.front(), replicas,
                                 smoke ? 2 : 4, ckpt_path);
    std::printf("%-9d %-8d %-12.3f %-16lld %-8lld\n", rec.replicas,
                rec.clients, rec.reload_ms,
                static_cast<long long>(rec.requests_during),
                static_cast<long long>(rec.dropped));
    reloads.push_back(rec);
  }
  std::remove(ckpt_path.c_str());
  PrintRule();

  if (!json_path.empty()) {
    WriteJson(json_path, records, reloads);
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
