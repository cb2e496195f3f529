// Serving: train a grid predictor, checkpoint it with the GTCP format,
// load the weights into a fresh model, and serve single-sample requests
// from concurrent clients through the dynamically-batched inference
// engine (DESIGN.md §9).
//
// Run:  ./build/examples/serving

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/grid_models.h"
#include "models/trainer.h"
#include "obs/obs.h"
#include "serve/adapters.h"
#include "serve/engine.h"

namespace data = geotorch::data;
namespace ds = geotorch::datasets;
namespace io = geotorch::io;
namespace models = geotorch::models;
namespace serve = geotorch::serve;

int main() {
  std::printf("== GeoTorch-CPP serving ==\n");

  // 1. A small spatiotemporal grid dataset and a trained PeriodicalCnn.
  ds::GridDataset grid = ds::MakeTemperature(
      /*timesteps=*/240, /*height=*/8, /*width=*/8, /*seed=*/7);
  grid.MinMaxNormalize();
  models::GridModelConfig mc;
  mc.channels = grid.channels();
  mc.height = grid.height();
  mc.width = grid.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 8;
  mc.seed = 42;
  grid.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                   mc.len_trend);
  data::SplitIndices split = data::ChronologicalSplit(grid.Size());
  data::SubsetDataset train(&grid, split.train);
  data::SubsetDataset val(&grid, split.val);
  data::SubsetDataset test(&grid, split.test);

  models::PeriodicalCnn model(mc);
  models::TrainConfig tc;
  tc.max_epochs = 3;
  tc.batch_size = 16;
  tc.lr = 1e-2f;
  tc.seed = 9;
  models::RegressionResult fit =
      models::TrainGridModel(model, train, val, test, tc);
  std::printf("trained %d epochs, test MAE %.4f\n", fit.epochs_run,
              fit.mae);

  // 2. Checkpoint the weights, then restore them into a FRESH model —
  //    the one that will actually serve. Production deployments only
  //    ever see this path: weights arrive as a GTCP file.
  const std::string ckpt = "serving_example.ckpt";
  geotorch::Status saved = io::SaveStateDict(model, ckpt);
  if (!saved.ok()) {
    std::printf("save failed: %s\n", saved.message().c_str());
    return 1;
  }
  models::PeriodicalCnn served_model(mc);  // fresh random weights...
  geotorch::Status loaded = io::LoadStateDict(served_model, ckpt);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.message().c_str());
    return 1;
  }
  std::printf("checkpoint round-tripped through %s\n", ckpt.c_str());

  // 3. Stand up the engine. The spec pins each request's tensor
  //    shapes; GridForward serves the model in eval mode under
  //    NoGradGuard. Knobs also come from GEOTORCH_SERVE_* env vars via
  //    EngineOptions::FromEnv().
  serve::EngineOptions opts;
  opts.max_batch = 8;   // coalesce up to 8 queued requests per forward
  opts.max_queue = 64;  // past 64 waiting, reject with OutOfRange
  // GEOTORCH_SERVE_PRECISION=int8 serves the checkpointed model
  // through the int8 GEMM path (DESIGN.md §10); the adapter
  // quantizes and prepacks the weights once, here at wrap time.
  opts.precision = serve::EngineOptions::FromEnv().precision;
  data::Sample probe = grid.Get(0);
  serve::SampleSpec spec;
  spec.x = probe.x.shape();
  for (const auto& e : probe.extras) spec.extras.push_back(e.shape());
  serve::Engine engine(serve::GridForward(served_model, opts.precision), spec,
                       opts);

  // 4. Concurrent clients submit single samples and block for their
  //    row of the batched forward.
  const int kClients = 4, kRequestsPerClient = 50;
  std::vector<std::vector<int64_t>> lat(kClients);
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        data::Sample s = grid.Get((c * kRequestsPerClient + i) % grid.Size());
        const int64_t t0 = geotorch::obs::NowNs();
        geotorch::Result<geotorch::tensor::Tensor> out = engine.Submit(s);
        if (!out.ok()) {
          errors.fetch_add(1);
          continue;
        }
        lat[c].push_back((geotorch::obs::NowNs() - t0) / 1000);
      }
    });
  }
  for (auto& t : clients) t.join();
  engine.Shutdown();

  std::vector<int64_t> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  std::sort(all.begin(), all.end());
  const serve::EngineStats stats = engine.stats();
  std::printf("served %lld requests in %lld batches (mean batch %.1f), "
              "%d errors\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches),
              stats.batches ? static_cast<double>(stats.requests) /
                                  static_cast<double>(stats.batches)
                            : 0.0,
              errors.load());
  if (!all.empty()) {
    std::printf("latency p50 %lldus  p99 %lldus\n",
                static_cast<long long>(all[all.size() / 2]),
                static_cast<long long>(all[all.size() * 99 / 100]));
  }
  std::remove(ckpt.c_str());
  return 0;
}
