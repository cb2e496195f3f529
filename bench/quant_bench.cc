// Low-precision inference ablation (DESIGN.md §10): what int8 buys —
// and costs. Two sections:
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
//
// Serving throughput per precision is serve_bench's `precision` rows.
// hardware_threads is reported so multi-core results are read in
// context.
//
// Flags: --json=PATH (the committed BENCH_quant.json), --smoke for CI.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "bench/bench_util.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "models/raster_models.h"
#include "models/trainer.h"
#include "nn/precision.h"
#include "obs/obs.h"
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

// ---------------------------------------------------------------- JSON

void WriteJson(const std::string& path, const std::vector<GemmRow>& gemms,
               const std::vector<ModelRow>& model_rows,
               double int8_acc_delta_max) {
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
  std::fprintf(f, "  ],\n  \"summary\": {\n");
  std::fprintf(f, "    \"int8_top1_delta_pct_max\": %.3f\n",
               100.0 * int8_acc_delta_max);
  std::fprintf(f, "  },\n");
  json.Finish();
}

// ----------------------------------------------------------------- run

void Run(const BenchArgs& args, const std::string& json_path, bool smoke) {
  DeviceGuard device(Device::kParallel);

  // --- 1. per-GEMM sweep ---------------------------------------------
  std::vector<std::array<int64_t, 3>> shapes =
      smoke ? std::vector<std::array<int64_t, 3>>{{16, 256, 128}}
            : std::vector<std::array<int64_t, 3>>{{16, 1024, 1024},
                                                  {16, 512, 512},
                                                  {16, 4096, 128},
                                                  {64, 2048, 512},
                                                  {256, 256, 256},
                                                  {16, 1024, 6}};
  std::printf("QUANT BENCH 1/2: GEMM precision sweep (prepacked = weight "
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

  models::RasterModelConfig mc;
  mc.in_channels = 4;
  mc.in_height = 28;
  mc.in_width = 28;
  mc.num_classes = 6;
  mc.num_filtered_features = dataset.num_additional_features();
  mc.base_filters = smoke ? 64 : 256;  // DeepSAT hidden = 4 * filters
  mc.seed = 17;
  std::vector<std::pair<std::string, models::RasterModelConfig>> zoo = {
      {"DeepSAT", mc}};
  if (!smoke) {
    mc.base_filters = 16;
    zoo.push_back({"SatCNN", mc});
  }
  const auto make = [](const std::string& name,
                       const models::RasterModelConfig& config)
      -> std::unique_ptr<models::RasterClassifier> {
    if (name == "SatCNN") return std::make_unique<models::SatCnn>(config);
    return std::make_unique<models::DeepSat>(config);
  };

  std::printf("QUANT BENCH 2/2: top-1 per precision on SAT-6 (n=%lld)\n",
              static_cast<long long>(n_samples));
  PrintRule();
  std::printf("%-10s %-8s %-8s %-10s %-12s %-12s\n", "model", "f32", "int8",
              "int8ckpt", "f32_bytes", "int8_bytes");
  PrintRule();
  std::vector<ModelRow> model_rows;
  double int8_acc_delta_max = 0.0;
  for (const auto& [name, config] : zoo) {
    std::unique_ptr<models::RasterClassifier> model = make(name, config);
    models::ClassificationResult trained =
        models::TrainClassifier(*model, train, val, test, tc);
    Calibrate(*model, val, tc.batch_size);

    ModelRow row;
    row.model = name;
    row.dataset = "SAT6";
    row.acc_f32 = trained.accuracy;
    model->SetPrecision(nn::Precision::kInt8);
    row.acc_int8 = EvalAccuracy(*model, test, tc.batch_size);
    model->SetPrecision(nn::Precision::kF32);
    int8_acc_delta_max =
        std::max(int8_acc_delta_max,
                 static_cast<double>(std::abs(row.acc_int8 - row.acc_f32)));

    const std::string f32_path = "quant_bench_" + name + "_f32.gtcp";
    const std::string q_path = "quant_bench_" + name + "_int8.gtcp";
    io::SaveStateDict(*model, f32_path);
    io::SaveQuantizedStateDict(*model, q_path);
    row.ckpt_f32_bytes = FileBytes(f32_path);
    row.ckpt_int8_bytes = FileBytes(q_path);
    // Round-trip: load the quantized checkpoint into a fresh model and
    // measure top-1 with the dequantized weights — the accuracy a
    // deployment restarting from the small checkpoint actually sees.
    models::RasterModelConfig fresh_config = config;
    fresh_config.seed = 999;
    std::unique_ptr<models::RasterClassifier> fresh = make(name, fresh_config);
    const Status st = io::LoadStateDict(*fresh, q_path);
    if (!st.ok()) {
      std::printf("WARNING: quantized load failed: %s\n",
                  st.message().c_str());
    } else {
      row.acc_int8_ckpt = EvalAccuracy(*fresh, test, tc.batch_size);
    }
    std::remove(f32_path.c_str());
    std::remove(q_path.c_str());
    std::printf("%-10s %-8.4f %-8.4f %-10.4f %-12lld %-12lld\n",
                row.model.c_str(), row.acc_f32, row.acc_int8,
                row.acc_int8_ckpt, static_cast<long long>(row.ckpt_f32_bytes),
                static_cast<long long>(row.ckpt_int8_bytes));
    model_rows.push_back(row);
  }
  PrintRule();
  std::printf("worst top-1 delta int8 vs f32: %.2f%%\n",
              100.0 * int8_acc_delta_max);

  if (!json_path.empty()) {
    WriteJson(json_path, gemms, model_rows, int8_acc_delta_max);
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
