// Low-precision inference ablation (DESIGN.md §10): what int8 buys —
// and costs — end to end. Three sections:
//
//   1. per-GEMM sweep over serving-shaped matmuls: f32 vs int8, the
//      int8 kernel measured both with the weight operand packed per
//      call and pre-packed into the panel layout (the
//      serving configuration — weights are constant, so SetPrecision
//      hoists the B pack out of the request path). int8 rows include
//      the per-call activation quantization, which is what a Linear
//      forward actually pays.
//   2. classifier accuracy ablation: train DeepSAT (pure-MLP) and
//      SatCNN on synthetic SAT-6 in f32, then evaluate top-1 at f32 /
//      int8 (static activation scales calibrated on the val
//      set), plus through an int8-quantized GTCP checkpoint
//      (save -> load -> eval), with on-disk sizes for both formats.
//   3. end-to-end serving throughput: the dynamic-batching engine over
//      the same trained models, one row per precision, closed-loop
//      clients as in serve_bench.
//
// int8 wins on both memory (a quarter of the bytes streamed) and
// compute (vdpwssd), and compounds with pre-packing. hardware_threads
// is reported so multi-core results are read in context.
//
// Flags: --json=PATH (the committed BENCH_quant.json), --smoke for CI.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "bench/bench_util.h"
#include "core/stopwatch.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/raster_models.h"
#include "models/trainer.h"
#include "nn/precision.h"
#include "obs/obs.h"
#include "serve/adapters.h"
#include "serve/engine.h"
#include "tensor/device.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace geotorch::bench {
namespace {

namespace ag = ::geotorch::autograd;
namespace data = ::geotorch::data;
namespace ds = ::geotorch::datasets;
namespace io = ::geotorch::io;
namespace models = ::geotorch::models;
namespace nn = ::geotorch::nn;
namespace serve = ::geotorch::serve;
namespace ts = ::geotorch::tensor;

// ---------------------------------------------------------------- GEMM

struct GemmRow {
  int64_t m = 0, k = 0, n = 0;
  double f32_ns = 0, int8_ns = 0, int8p_ns = 0;
};

// Best-of-3 timing windows, reps sized so each window runs ~25 ms.
template <typename Fn>
double TimeNs(const Fn& fn) {
  fn();  // warm caches / workspaces
  Stopwatch est;
  fn();
  const double est_ns = std::max(1.0, est.ElapsedSeconds() * 1e9);
  const int64_t reps =
      std::max<int64_t>(3, static_cast<int64_t>(25e6 / est_ns));
  double best = 0.0;
  for (int w = 0; w < 3; ++w) {
    Stopwatch timer;
    for (int64_t r = 0; r < reps; ++r) fn();
    const double ns = timer.ElapsedSeconds() * 1e9 / reps;
    if (w == 0 || ns < best) best = ns;
  }
  return best;
}

GemmRow RunGemmRow(int64_t m, int64_t k, int64_t n) {
  std::vector<float> a(m * k), b(k * n), c(m * n);
  uint64_t state = 0x9E3779B97F4A7C15ull + m * 131 + k * 31 + n;
  auto rnd = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>(static_cast<int64_t>(state >> 40) % 2001 -
                              1000) /
           1000.0f;
  };
  for (auto& x : a) x = rnd();
  for (auto& x : b) x = rnd();

  GemmRow row;
  row.m = m;
  row.k = k;
  row.n = n;
  row.f32_ns = TimeNs([&] { ts::Gemm(a.data(), b.data(), c.data(), m, k, n); });

  std::vector<int8_t> bq(k * n);
  std::vector<float> b_scales(n);
  ts::QuantizeColsInt8(b.data(), k, n, bq.data(), b_scales.data());
  std::vector<int8_t> aq(m * k);
  const float a_scale = ts::SymmetricScale(ts::AbsMax(a.data(), m * k));
  ts::Int8GemmOptions iopts;
  iopts.a_scales = &a_scale;
  iopts.a_scales_len = 1;
  iopts.b_scales = b_scales.data();
  iopts.b_scales_len = n;
  // Activation quantization inside the timed region: the layer pays it
  // on every forward. Weight quantization stays outside (done once).
  row.int8_ns = TimeNs([&] {
    ts::QuantizeInt8(a.data(), m * k, a_scale, aq.data());
    ts::GemmInt8(aq.data(), bq.data(), c.data(), m, k, n, iopts);
  });
  std::vector<int8_t> bq_packed(ts::Int8PackedBSize(k, n));
  ts::PackInt8B(bq.data(), k, n, bq_packed.data());
  row.int8p_ns = TimeNs([&] {
    ts::QuantizeInt8(a.data(), m * k, a_scale, aq.data());
    ts::GemmInt8(aq.data(), ts::Int8PackedB{bq_packed.data()}, c.data(), m, k,
                 n, iopts);
  });
  return row;
}

// ----------------------------------------------------------- accuracy

struct ModelRow {
  std::string model;
  std::string dataset;
  double acc_f32 = 0, acc_int8 = 0, acc_int8_ckpt = 0;
  int64_t ckpt_f32_bytes = 0, ckpt_int8_bytes = 0;
};

float EvalAccuracy(models::RasterClassifier& model, const data::Dataset& test,
                   int64_t batch_size) {
  ag::NoGradGuard guard;
  model.SetTraining(false);
  data::DataLoader loader(&test, batch_size, /*shuffle=*/false);
  data::Batch batch;
  int64_t correct = 0, total = 0;
  while (loader.Next(&batch)) {
    ag::Variable features;
    if (!batch.extras.empty()) features = ag::Variable(batch.extras[0]);
    ts::Tensor logits =
        model.Forward(ag::Variable(batch.x), features).value();
    ts::Tensor pred = ts::Argmax(logits, 1);
    for (int64_t i = 0; i < pred.numel(); ++i) {
      if (static_cast<int64_t>(pred.flat(i)) ==
          static_cast<int64_t>(batch.y.flat(i))) {
        ++correct;
      }
    }
    total += pred.numel();
  }
  return total > 0 ? static_cast<float>(correct) / total : 0.0f;
}

// Static activation scales: run the val set forward in f32 with
// calibration on; every Linear/Conv records its input absmax.
void Calibrate(models::RasterClassifier& model, const data::Dataset& val,
               int64_t batch_size) {
  ag::NoGradGuard guard;
  model.SetTraining(false);
  model.SetCalibrating(true);
  data::DataLoader loader(&val, batch_size, /*shuffle=*/false);
  data::Batch batch;
  while (loader.Next(&batch)) {
    ag::Variable features;
    if (!batch.extras.empty()) features = ag::Variable(batch.extras[0]);
    model.Forward(ag::Variable(batch.x), features);
  }
  model.SetCalibrating(false);
}

int64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size < 0 ? 0 : size;
}

// ------------------------------------------------------------ serving

struct ServeRow {
  std::string model;
  std::string precision;
  int clients = 0;
  int max_batch = 0;
  int64_t requests = 0;
  double rps = 0;
  int64_t p50_us = 0;
  double mean_batch = 0;
};

ServeRow ServeOnce(const std::string& model_name,
                   models::RasterClassifier& model, nn::Precision precision,
                   const std::vector<data::Sample>& samples, int clients,
                   int max_batch, int requests_per_client) {
  serve::EngineOptions opts;
  opts.max_batch = max_batch;
  opts.max_delay_us = 200;
  opts.max_queue = 1024;
  opts.warmup_batches = 2;
  opts.precision = precision;
  serve::SampleSpec spec;
  spec.x = samples[0].x.shape();
  for (const auto& e : samples[0].extras) spec.extras.push_back(e.shape());
  serve::Engine engine(serve::ClassifierForward(model, opts.precision), spec,
                       opts);

  std::vector<std::vector<int64_t>> latencies(clients);
  std::atomic<int64_t> errors{0};
  Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(requests_per_client);
      for (int i = 0; i < requests_per_client; ++i) {
        const data::Sample& s =
            samples[(c * requests_per_client + i) % samples.size()];
        const int64_t t0 = obs::NowNs();
        auto r = engine.Submit(s);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        latencies[c].push_back((obs::NowNs() - t0) / 1000);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();
  engine.Shutdown();

  ServeRow row;
  row.model = model_name;
  row.precision = nn::PrecisionName(precision);
  row.clients = clients;
  row.max_batch = max_batch;
  row.requests =
      static_cast<int64_t>(clients) * requests_per_client - errors.load();
  row.rps = row.requests / std::max(seconds, 1e-9);
  std::vector<int64_t> all;
  for (auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  std::sort(all.begin(), all.end());
  row.p50_us = Percentile(all, 0.50);
  const serve::EngineStats stats = engine.stats();
  row.mean_batch =
      stats.batches > 0 ? static_cast<double>(stats.requests) / stats.batches
                        : 0.0;
  return row;
}

ServeRow ServeBest(const std::string& model_name,
                   models::RasterClassifier& model, nn::Precision precision,
                   const std::vector<data::Sample>& samples, int clients,
                   int max_batch, int requests_per_client, int reps) {
  ServeRow best;
  for (int r = 0; r < reps; ++r) {
    ServeRow row = ServeOnce(model_name, model, precision, samples, clients,
                             max_batch, requests_per_client);
    if (r == 0 || row.rps > best.rps) best = row;
  }
  return best;
}

// ---------------------------------------------------------------- JSON

void WriteJson(const std::string& path, const std::vector<GemmRow>& gemms,
               const std::vector<ModelRow>& model_rows,
               const std::vector<ServeRow>& serve_rows,
               const std::string& headline_model, int headline_clients,
               int headline_batch, double int8_speedup,
               double int8_acc_delta) {
  BenchJsonWriter json(path, "quant_bench");
  if (!json.ok()) return;
  std::FILE* f = json.stream();
  std::fprintf(f, "  \"gemm\": [\n");
  for (size_t i = 0; i < gemms.size(); ++i) {
    const GemmRow& g = gemms[i];
    std::fprintf(
        f,
        "    {\"m\": %lld, \"k\": %lld, \"n\": %lld, \"f32_ns\": %.0f, "
        "\"int8_ns\": %.0f, \"int8_prepacked_ns\": %.0f, "
        "\"int8_prepacked_speedup\": %.2f}%s\n",
        static_cast<long long>(g.m), static_cast<long long>(g.k),
        static_cast<long long>(g.n), g.f32_ns, g.int8_ns, g.int8p_ns,
        g.f32_ns / std::max(1.0, g.int8p_ns),
        i + 1 < gemms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"models\": [\n");
  for (size_t i = 0; i < model_rows.size(); ++i) {
    const ModelRow& m = model_rows[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"dataset\": \"%s\", \"top1_f32\": %.4f, "
        "\"top1_int8\": %.4f, "
        "\"top1_int8_checkpoint\": %.4f, \"checkpoint_f32_bytes\": %lld, "
        "\"checkpoint_int8_bytes\": %lld}%s\n",
        m.model.c_str(), m.dataset.c_str(), m.acc_f32, m.acc_int8,
        m.acc_int8_ckpt, static_cast<long long>(m.ckpt_f32_bytes),
        static_cast<long long>(m.ckpt_int8_bytes),
        i + 1 < model_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"serving\": [\n");
  for (size_t i = 0; i < serve_rows.size(); ++i) {
    const ServeRow& s = serve_rows[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"precision\": \"%s\", \"clients\": %d, "
        "\"max_batch\": %d, \"requests\": %lld, \"throughput_rps\": %.1f, "
        "\"p50_us\": %lld, \"mean_batch\": %.2f}%s\n",
        s.model.c_str(), s.precision.c_str(), s.clients, s.max_batch,
        static_cast<long long>(s.requests), s.rps,
        static_cast<long long>(s.p50_us), s.mean_batch,
        i + 1 < serve_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"serve_model\": \"%s\",\n", headline_model.c_str());
  std::fprintf(f, "    \"serve_clients\": %d,\n", headline_clients);
  std::fprintf(f, "    \"serve_max_batch\": %d,\n", headline_batch);
  std::fprintf(f, "    \"int8_serving_speedup_vs_f32\": %.3f,\n",
               int8_speedup);
  std::fprintf(f, "    \"int8_top1_delta_pct\": %.3f\n",
               100.0 * int8_acc_delta);
  std::fprintf(f, "  },\n");
  json.Finish();
}

// ----------------------------------------------------------------- run

void Run(const BenchArgs& args, const std::string& json_path, bool smoke) {
  ts::DeviceGuard device(ts::Device::kParallel);

  // --- 1. per-GEMM sweep ---------------------------------------------
  std::vector<std::array<int64_t, 3>> shapes =
      smoke ? std::vector<std::array<int64_t, 3>>{{16, 256, 128}}
            : std::vector<std::array<int64_t, 3>>{{16, 1024, 1024},
                                                  {16, 512, 512},
                                                  {16, 4096, 128},
                                                  {64, 2048, 512},
                                                  {256, 256, 256},
                                                  {16, 1024, 6}};
  std::printf("QUANT BENCH 1/3: GEMM precision sweep (prepacked = weight "
              "operand packed once, the serving path)\n");
  PrintRule();
  std::printf("%-18s %-10s %-10s %-10s %-8s\n", "m x k x n", "f32(ns)",
              "int8", "int8pre", "int8x");
  PrintRule();
  std::vector<GemmRow> gemms;
  for (const auto& s : shapes) {
    GemmRow g = RunGemmRow(s[0], s[1], s[2]);
    char shape[48];
    std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                  static_cast<long long>(g.m), static_cast<long long>(g.k),
                  static_cast<long long>(g.n));
    std::printf("%-18s %-10.0f %-10.0f %-10.0f %-8.2f\n", shape, g.f32_ns,
                g.int8_ns, g.int8p_ns, g.f32_ns / std::max(1.0, g.int8p_ns));
    gemms.push_back(g);
  }
  PrintRule();

  // --- 2. classifier accuracy ablation -------------------------------
  // DeepSAT is the pure-MLP classifier: every FLOP of its forward is a
  // Linear GEMM, so it shows what the int8 path buys when the
  // kernel dominates. SatCNN adds the conv-heavy counterpoint (its
  // weights ride the GEMM A operand, which cannot be pre-packed).
  ds::RasterDatasetOptions dopts;
  dopts.include_additional_features = true;  // DeepSAT needs features
  const int64_t n_samples = smoke ? 180 : 600;
  ds::RasterClassificationDataset dataset =
      ds::MakeSat6(n_samples, dopts, /*seed=*/3);
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);

  models::TrainConfig tc;
  tc.max_epochs = smoke ? 3 : 14;
  tc.patience = 3;
  tc.batch_size = 16;
  tc.lr = 2e-3f;
  tc.seed = 71;

  struct Entry {
    std::string name;
    std::unique_ptr<models::RasterClassifier> model;
  };
  std::vector<Entry> zoo;
  {
    models::RasterModelConfig mc;
    mc.in_channels = 4;
    mc.in_height = 28;
    mc.in_width = 28;
    mc.num_classes = 6;
    mc.num_filtered_features = dataset.num_additional_features();
    mc.base_filters = smoke ? 64 : 256;  // DeepSAT hidden = 4 * filters
    mc.seed = 17;
    zoo.push_back({"DeepSAT", std::make_unique<models::DeepSat>(mc)});
    if (!smoke) {
      models::RasterModelConfig cc = mc;
      cc.base_filters = 16;
      zoo.push_back({"SatCNN", std::make_unique<models::SatCnn>(cc)});
    }
  }

  std::printf("QUANT BENCH 2/3: top-1 per precision on SAT-6 (n=%lld)\n",
              static_cast<long long>(n_samples));
  PrintRule();
  std::printf("%-10s %-8s %-8s %-10s %-12s %-12s\n", "model", "f32", "int8",
              "int8ckpt", "f32_bytes", "int8_bytes");
  PrintRule();
  std::vector<ModelRow> model_rows;
  for (auto& e : zoo) {
    models::ClassificationResult trained =
        models::TrainClassifier(*e.model, train, val, test, tc);
    Calibrate(*e.model, val, tc.batch_size);

    ModelRow row;
    row.model = e.name;
    row.dataset = "SAT6";
    row.acc_f32 = trained.accuracy;
    e.model->SetPrecision(nn::Precision::kInt8);
    row.acc_int8 = EvalAccuracy(*e.model, test, tc.batch_size);
    e.model->SetPrecision(nn::Precision::kF32);

    const std::string f32_path = "quant_bench_" + e.name + "_f32.gtcp";
    const std::string q_path = "quant_bench_" + e.name + "_int8.gtcp";
    io::SaveStateDict(*e.model, f32_path);
    io::SaveQuantizedStateDict(*e.model, q_path);
    row.ckpt_f32_bytes = FileBytes(f32_path);
    row.ckpt_int8_bytes = FileBytes(q_path);
    // Round-trip: load the quantized checkpoint into a fresh model and
    // measure top-1 with the dequantized weights — the accuracy a
    // deployment restarting from the small checkpoint actually sees.
    {
      models::RasterModelConfig mc;
      mc.in_channels = 4;
      mc.in_height = 28;
      mc.in_width = 28;
      mc.num_classes = 6;
      mc.num_filtered_features = dataset.num_additional_features();
      mc.base_filters =
          e.name == "SatCNN" ? 16 : (smoke ? int64_t{64} : int64_t{256});
      mc.seed = 999;
      std::unique_ptr<models::RasterClassifier> fresh;
      if (e.name == "SatCNN") {
        fresh = std::make_unique<models::SatCnn>(mc);
      } else {
        fresh = std::make_unique<models::DeepSat>(mc);
      }
      const Status st = io::LoadStateDict(*fresh, q_path);
      if (!st.ok()) {
        std::printf("WARNING: quantized load failed: %s\n",
                    st.message().c_str());
      } else {
        row.acc_int8_ckpt = EvalAccuracy(*fresh, test, tc.batch_size);
      }
    }
    std::printf("%-10s %-8.4f %-8.4f %-10.4f %-12lld %-12lld\n",
                row.model.c_str(), row.acc_f32, row.acc_int8,
                row.acc_int8_ckpt, static_cast<long long>(row.ckpt_f32_bytes),
                static_cast<long long>(row.ckpt_int8_bytes));
    model_rows.push_back(row);
  }
  PrintRule();

  // --- 3. end-to-end serving throughput per precision ----------------
  const int requests_per_client = smoke ? 24 : 160;
  const int reps = smoke ? 1 : 3;
  const std::vector<std::pair<int, int>> serve_configs =
      smoke ? std::vector<std::pair<int, int>>{{1, 16}}
            : std::vector<std::pair<int, int>>{{1, 16}, {8, 16}};
  std::vector<data::Sample> samples;
  for (int64_t i = 0; i < std::min<int64_t>(dataset.Size(), 64); ++i) {
    samples.push_back(dataset.Get(i));
  }

  std::printf("QUANT BENCH 3/3: engine throughput per precision "
              "(%d req/client)\n",
              requests_per_client);
  PrintRule();
  std::printf("%-10s %-10s %-8s %-10s %-12s %-9s %-10s\n", "model",
              "precision", "clients", "max_batch", "rps", "p50(us)",
              "mean_batch");
  PrintRule();
  std::vector<ServeRow> serve_rows;
  for (auto& e : zoo) {
    for (const auto& [clients, max_batch] : serve_configs) {
      for (nn::Precision p : {nn::Precision::kF32, nn::Precision::kInt8}) {
        ServeRow row = ServeBest(e.name, *e.model, p, samples, clients,
                                 max_batch, requests_per_client, reps);
        std::printf("%-10s %-10s %-8d %-10d %-12.1f %-9lld %-10.2f\n",
                    row.model.c_str(), row.precision.c_str(), row.clients,
                    row.max_batch, row.rps,
                    static_cast<long long>(row.p50_us), row.mean_batch);
        serve_rows.push_back(row);
      }
    }
    e.model->SetPrecision(nn::Precision::kF32);
  }
  PrintRule();

  // Headline: the config (model, clients, max_batch) whose int8 row
  // gains the most over its f32 row.
  std::string headline_model;
  int headline_clients = 0, headline_batch = 0;
  double int8_speedup = 0.0;
  for (const ServeRow& r : serve_rows) {
    if (r.precision != "int8") continue;
    for (const ServeRow& base : serve_rows) {
      if (base.precision != "f32" || base.model != r.model ||
          base.clients != r.clients || base.max_batch != r.max_batch ||
          base.rps <= 0) {
        continue;
      }
      const double s = r.rps / base.rps;
      if (s <= int8_speedup) continue;
      int8_speedup = s;
      headline_model = r.model;
      headline_clients = r.clients;
      headline_batch = r.max_batch;
    }
  }
  double int8_acc_delta = 0.0;
  for (const ModelRow& m : model_rows) {
    if (m.model == headline_model) {
      int8_acc_delta = std::abs(m.acc_int8 - m.acc_f32);
    }
  }
  std::printf("serving %s (clients=%d, max_batch=%d): int8 %.2fx vs f32; "
              "top-1 delta int8 %.2f%%\n",
              headline_model.c_str(), headline_clients, headline_batch,
              int8_speedup, 100.0 * int8_acc_delta);

  if (!json_path.empty()) {
    WriteJson(json_path, gemms, model_rows, serve_rows, headline_model,
              headline_clients, headline_batch, int8_speedup,
              int8_acc_delta);
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
