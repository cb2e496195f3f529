// Fleet serving: run a replicated serving fleet — two models, each
// behind N dynamically-batched engine replicas and a least-loaded
// router — with per-tenant admission control, then hot-reload one
// model to a new checkpoint while concurrent clients keep submitting
// (DESIGN.md §11). No response is ever dropped or computed against a
// half-loaded model: the fleet loads the new weights into shadow
// modules and swaps each replica between batches.
//
// Run:  ./build/examples/fleet_serving

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/grid_models.h"
#include "serve/adapters.h"
#include "serve/config.h"
#include "serve/fleet.h"

namespace data = geotorch::data;
namespace ds = geotorch::datasets;
namespace io = geotorch::io;
namespace models = geotorch::models;
namespace serve = geotorch::serve;

namespace {

// A reloadable snapshot factory: each fleet replica gets its own
// PeriodicalCnn, and Reload() streams a GTCP checkpoint into a shadow
// copy before any replica swaps. SetPrecision re-derives packed
// low-precision panels after a load (a no-op for f32).
serve::SnapshotFactory MakeFactory(models::GridModelConfig config) {
  return [config] {
    auto model = std::make_shared<models::PeriodicalCnn>(config);
    serve::ModelSnapshot snap;
    snap.owner = model;
    snap.forward = serve::GridForward(*model);
    snap.load = [model](const std::string& path) {
      geotorch::Status st = io::LoadStateDict(*model, path);
      if (st.ok()) model->SetPrecision(model->precision());
      return st;
    };
    return snap;
  };
}

}  // namespace

int main() {
  std::printf("== GeoTorch-CPP fleet serving ==\n");

  // 1. Two grid workloads sharing one fleet (think: two cities, or a
  // stable model and a canary).
  ds::GridDataset small = ds::MakeTemperature(240, 8, 8, /*seed=*/7);
  small.MinMaxNormalize();
  ds::GridDataset large = ds::MakeTemperature(240, 16, 16, /*seed=*/11);
  large.MinMaxNormalize();

  auto configure = [](ds::GridDataset& grid, int hidden, uint64_t seed) {
    models::GridModelConfig mc;
    mc.channels = grid.channels();
    mc.height = grid.height();
    mc.width = grid.width();
    mc.len_closeness = 3;
    mc.len_period = 2;
    mc.len_trend = 1;
    mc.hidden = hidden;
    mc.seed = seed;
    grid.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                     mc.len_trend);
    return mc;
  };
  models::GridModelConfig small_mc = configure(small, 8, 42);
  models::GridModelConfig large_mc = configure(large, 16, 43);

  // 2. The fleet: 2 replicas per model, 100 requests/s/tenant. All of
  // this is also reachable via GEOTORCH_FLEET_* (FleetOptions::FromEnv).
  serve::FleetOptions opts;
  opts.replicas = 2;
  opts.tenant_qps = 100;
  opts.engine.max_batch = 8;
  serve::Fleet fleet(opts);

  auto spec_of = [](const data::Sample& probe) {
    serve::SampleSpec spec;
    spec.x = probe.x.shape();
    for (const auto& e : probe.extras) spec.extras.push_back(e.shape());
    return spec;
  };
  if (!fleet.AddModel("city-small", MakeFactory(small_mc),
                      spec_of(small.Get(0))).ok() ||
      !fleet.AddModel("city-large", MakeFactory(large_mc),
                      spec_of(large.Get(0))).ok()) {
    std::printf("AddModel failed\n");
    return 1;
  }
  std::printf("fleet up: %d replicas x {city-small, city-large}\n",
              fleet.ReplicaCount("city-small"));

  // 3. Concurrent tenants submit against both models.
  std::atomic<int> served{0};
  std::atomic<int> throttled{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant-" + std::to_string(t % 2);
      const std::string model = t % 2 == 0 ? "city-small" : "city-large";
      ds::GridDataset& grid = t % 2 == 0 ? small : large;
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = fleet.Submit(model, tenant,
                              grid.Get(i++ % grid.Size()));
        if (r.ok()) {
          served.fetch_add(1);
        } else if (r.status().code() ==
                   geotorch::StatusCode::kResourceExhausted) {
          throttled.fetch_add(1);  // token bucket pushed back
        }
      }
    });
  }
  while (served.load() < 200) std::this_thread::yield();

  // 4. Hot reload city-small to "retrained" weights mid-traffic. The
  // checkpoint loads into shadows first; on any error (truncated file,
  // shape mismatch) nothing swaps and the old weights keep serving.
  const std::string ckpt = "fleet_example.ckpt";
  {
    models::GridModelConfig retrained = small_mc;
    retrained.seed = 99;  // stand-in for an actual retraining run
    models::PeriodicalCnn donor(retrained);
    if (!io::SaveStateDict(donor, ckpt).ok()) return 1;
  }
  const int before = served.load();
  geotorch::Status st = fleet.Reload("city-small", ckpt);
  std::printf("reload: %s (version %lld), ~%d responses served during it\n",
              st.ok() ? "ok" : st.message().c_str(),
              static_cast<long long>(*fleet.ModelVersion("city-small")),
              served.load() - before);

  while (served.load() < 400) std::this_thread::yield();
  stop.store(true);
  for (auto& c : clients) c.join();
  fleet.Shutdown();
  std::remove(ckpt.c_str());

  const serve::FleetStats stats = fleet.stats();
  std::printf("served %d requests (%lld routed, %lld throttled, "
              "%lld replica swaps)\n",
              served.load(), static_cast<long long>(stats.routed),
              static_cast<long long>(stats.tenant_rejected),
              static_cast<long long>(stats.reload_swaps));
  return 0;
}
