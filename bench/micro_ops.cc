// Google-benchmark microbenchmarks of the kernels that dominate the
// end-to-end experiments: elementwise ops, GEMM, convolution,
// GLCM extraction, STR-tree probes, and DataFrame group-by.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/stopwatch.h"
#include "tensor/quant.h"

#include "bench/bench_util.h"
#include "core/bounded_queue.h"
#include "core/memory.h"
#include "core/rng.h"
#include "core/storage_pool.h"
#include "core/thread_pool.h"
#include "data/dataloader.h"
#include "datasets/benchmarks.h"
#include "models/grid_models.h"
#include "models/raster_models.h"
#include "models/trainer.h"
#include "df/dataframe.h"
#include "obs/obs.h"
#include "optim/optimizer.h"
#include "raster/glcm.h"
#include "spatial/strtree.h"
#include "stream/event.h"
#include "stream/taxi_source.h"
#include "synth/taxi.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace geotorch {
namespace {

namespace ts = ::geotorch::tensor;

// One fork-join of the global pool with an empty body: n = 8 items that
// each earn a chunk, so the pool splits them min(8, threads) wide. This
// is the fixed cost every fanned-out kernel pays per call.
void BM_ParallelForRange(benchmark::State& state) {
  DeviceGuard guard(Device::kParallel);
  ThreadPool& pool = ThreadPool::Global();
  const int64_t n = state.range(0);
  for (auto _ : state) {
    pool.ParallelForRange(n, [](int64_t begin, int64_t end) {
      benchmark::DoNotOptimize(begin + end);
    });
  }
}
BENCHMARK(BM_ParallelForRange)->Arg(8)->UseRealTime();

// The elementwise rows sweep 1 << 14 .. 1 << 20 elements, the range over
// which the pool's work-size rule goes from one chunk to every worker.
// Real time: past one chunk pool workers do part of the work.
void BM_ElementwiseAdd(benchmark::State& state) {
  Rng rng(1);
  const int64_t n = state.range(0);
  ts::Tensor a = ts::Tensor::Randn({n}, rng);
  ts::Tensor b = ts::Tensor::Randn({n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::Add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ElementwiseAdd)
    ->Arg(1 << 12)
    ->RangeMultiplier(2)
    ->Range(1 << 14, 1 << 20)
    ->UseRealTime();

// ReLU forward and backward mask on zero-mean data: the sign of each
// element is a coin flip, so a branchy select mispredicts about half
// the time (BM_ElementwiseAdd has no data-dependent branch to miss).
// 131072 = one ST-ResNet activation, (32, 16, 16, 16).
void BM_Relu(benchmark::State& state) {
  Rng rng(11);
  const int64_t n = state.range(0);
  ts::Tensor x = ts::Tensor::Randn({n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::Relu(x));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Relu)
    ->Arg(1 << 12)
    ->RangeMultiplier(2)
    ->Range(1 << 14, 1 << 20)
    ->UseRealTime();

void BM_ReluMaskInPlace(benchmark::State& state) {
  Rng rng(12);
  const int64_t n = state.range(0);
  ts::Tensor x = ts::Tensor::Randn({n}, rng);
  ts::Tensor g = ts::Tensor::Randn({n}, rng);
  for (auto _ : state) {
    // Re-masking the same gradient keeps the work identical per
    // iteration: the mask only depends on the signs of x.
    ts::ReluMaskInPlace(g, x, 0.0f);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReluMaskInPlace)
    ->Arg(1 << 12)
    ->Arg(131072)
    ->Arg(1 << 20)
    ->UseRealTime();

void BM_BroadcastChannelMul(benchmark::State& state) {
  Rng rng(2);
  ts::Tensor x = ts::Tensor::Randn({16, 32, 16, 16}, rng);
  ts::Tensor g = ts::Tensor::Randn({1, 32, 1, 1}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::Mul(x, g));
  }
}
BENCHMARK(BM_BroadcastChannelMul);

void BM_MatMul(benchmark::State& state) {
  Rng rng(3);
  const int64_t n = state.range(0);
  ts::Tensor a = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor b = ts::Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBlockedSerial(benchmark::State& state) {
  Rng rng(3);
  const int64_t n = state.range(0);
  ts::Tensor a = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor b = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor c({n, n});
  DeviceGuard guard(Device::kSerial);
  for (auto _ : state) {
    ts::Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBlockedSerial)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmBlockedParallel(benchmark::State& state) {
  Rng rng(3);
  const int64_t n = state.range(0);
  ts::Tensor a = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor b = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor c({n, n});
  DeviceGuard guard(Device::kParallel);
  for (auto _ : state) {
    ts::Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
// Real time: pool workers do the work, so the main thread's CPU time
// would overstate items/s. 64..256 crosses the pool's fan-out rule (one
// to three kMC row tiles); 512 is a whole-pool problem.
BENCHMARK(BM_GemmBlockedParallel)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Arg(192)
    ->Arg(256)
    ->Arg(512)
    ->UseRealTime();

void BM_GemmReference(benchmark::State& state) {
  Rng rng(3);
  const int64_t n = state.range(0);
  ts::Tensor a = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor b = ts::Tensor::Randn({n, n}, rng);
  ts::Tensor c({n, n});
  for (auto _ : state) {
    ts::ReferenceGemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(128)->Arg(256);

// One stride-1 conv timed forward or backward (weight, bias and input
// gradients) on the serial or the parallel device, kernel k, pad k / 2.
// The GFLOP counter reads as GFLOP/s: 2 flops per multiply-add of each
// im2col product (f × c·k·k × oh·ow per sample), one in the forward and
// two in the backward. Real time: samples run on pool workers.
void RunConv(benchmark::State& state, int64_t n, int64_t c, int64_t f,
             int64_t h, int64_t w, int64_t k, bool parallel, bool backward) {
  DeviceGuard guard(parallel ? Device::kParallel : Device::kSerial);
  Rng rng(backward ? 5 : 4);
  ts::Tensor x = ts::Tensor::Randn({n, c, h, w}, rng);
  ts::Tensor wt = ts::Tensor::Randn({f, c, k, k}, rng, 0, 0.1f);
  ts::Tensor bias = ts::Tensor::Randn({f}, rng, 0, 0.1f);
  const ts::ConvSpec spec{.stride = 1, .padding = k / 2};
  ts::Tensor g = ts::Tensor::Randn({n, f, h, w}, rng);
  for (auto _ : state) {
    if (backward) {
      benchmark::DoNotOptimize(ts::Conv2dBackward(g, x, wt, true, spec));
    } else {
      benchmark::DoNotOptimize(ts::Conv2dForward(x, wt, bias, spec));
    }
  }
  const double flop = (backward ? 4.0 : 2.0) * static_cast<double>(n) * f *
                      c * k * k * h * w;
  state.counters["GFLOP"] = benchmark::Counter(
      flop * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

// Args: batch, in channels, filters, spatial size, device; 3x3 kernel,
// pad 1. The last four shapes are the convs of an ST-ResNet training
// step (batch 32, 16x16 grid, hidden 16).
void ConvShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "c", "f", "hw", "parallel"});
  for (const int64_t parallel : {0, 1}) {
    for (const int64_t hw : {16, 32, 64}) b->Args({8, 8, 16, hw, parallel});
    b->Args({32, 6, 16, 16, parallel});
    b->Args({32, 2, 16, 16, parallel});
    b->Args({32, 16, 16, 16, parallel});
    b->Args({32, 16, 2, 16, parallel});
  }
}

void BM_Conv2dForward(benchmark::State& state) {
  const int64_t hw = state.range(3);
  RunConv(state, state.range(0), state.range(1), state.range(2), hw, hw, 3,
          state.range(4) != 0, /*backward=*/false);
}
BENCHMARK(BM_Conv2dForward)->Apply(ConvShapes)->UseRealTime();

void BM_Conv2dBackward(benchmark::State& state) {
  const int64_t hw = state.range(3);
  RunConv(state, state.range(0), state.range(1), state.range(2), hw, hw, 3,
          state.range(4) != 0, /*backward=*/true);
}
// ConvShapes plus wider, odd-sized and batch-1 problems: filter and
// channel tails, two K blocks of output positions, a big single sample.
void ConvBackwardShapes(benchmark::internal::Benchmark* b) {
  ConvShapes(b);
  for (const int64_t parallel : {0, 1}) {
    b->Args({8, 32, 64, 32, parallel});
    b->Args({32, 5, 40, 20, parallel});
    b->Args({1, 16, 16, 64, parallel});
  }
}
BENCHMARK(BM_Conv2dBackward)->Apply(ConvBackwardShapes)->UseRealTime();

// Every distinct conv of the Table IV–VII models at the benches' default
// scale, as (batch, in channels, filters, height, width, kernel), with
// the largest batch each shape trains at. Table IV lists its 16x16 grid
// only: its other two grids run the same channel plans.
constexpr std::array<std::array<int64_t, 6>, 50> kTableConvs = {{
    // Table IV: grid models, 16x16.
    {16, 2, 16, 16, 16, 3}, {16, 4, 16, 16, 16, 3}, {16, 6, 16, 16, 16, 3},
    {16, 12, 16, 16, 16, 3}, {16, 16, 16, 16, 16, 3}, {16, 16, 2, 16, 16, 3},
    {16, 16, 2, 16, 16, 1}, {16, 2, 64, 16, 16, 3}, {16, 16, 64, 16, 16, 3},
    // Table V: weather grid, 16x32.
    {16, 1, 16, 16, 32, 3}, {16, 2, 16, 16, 32, 3}, {16, 3, 16, 16, 32, 3},
    {16, 6, 16, 16, 32, 3}, {16, 16, 16, 16, 32, 3}, {16, 16, 1, 16, 32, 3},
    {16, 16, 1, 16, 32, 1}, {16, 1, 64, 16, 32, 3}, {16, 16, 64, 16, 32, 3},
    // Table VI: raster models.
    {16, 13, 8, 64, 64, 3}, {16, 8, 8, 64, 64, 3}, {16, 8, 8, 32, 32, 3},
    {16, 8, 16, 32, 32, 3}, {16, 16, 16, 32, 32, 3}, {16, 4, 8, 28, 28, 3},
    {16, 8, 8, 28, 28, 3}, {16, 8, 8, 14, 14, 3}, {16, 8, 16, 14, 14, 3},
    {16, 16, 16, 14, 14, 3}, {16, 16, 16, 7, 7, 3}, {8, 4, 8, 32, 32, 3},
    {8, 16, 8, 32, 32, 3}, {8, 24, 8, 32, 32, 3}, {8, 8, 16, 16, 16, 3},
    {8, 32, 16, 16, 16, 3}, {8, 16, 32, 8, 8, 3}, {8, 32, 32, 8, 8, 3},
    {8, 32, 2, 8, 8, 1}, {8, 8, 2, 32, 32, 1},
    // Table VII: segmentation models, 48x48.
    {4, 4, 8, 48, 48, 3}, {4, 8, 8, 48, 48, 3}, {4, 16, 8, 48, 48, 3},
    {4, 24, 8, 48, 48, 3}, {4, 8, 16, 24, 24, 3}, {4, 16, 16, 24, 24, 3},
    {4, 32, 16, 24, 24, 3}, {4, 16, 32, 12, 12, 3}, {4, 32, 32, 12, 12, 3},
    {4, 8, 2, 48, 48, 1}, {4, 16, 2, 24, 24, 1}, {4, 32, 2, 12, 12, 1},
}};

void TableConvShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "c", "f", "h", "w", "k", "parallel"});
  for (const int64_t parallel : {0, 1}) {
    for (const auto& s : kTableConvs) {
      b->Args({s[0], s[1], s[2], s[3], s[4], s[5], parallel});
    }
  }
}

void BM_Conv2dTableForward(benchmark::State& state) {
  RunConv(state, state.range(0), state.range(1), state.range(2),
          state.range(3), state.range(4), state.range(5), state.range(6) != 0,
          /*backward=*/false);
}
BENCHMARK(BM_Conv2dTableForward)->Apply(TableConvShapes)->UseRealTime();

void BM_Conv2dTableBackward(benchmark::State& state) {
  RunConv(state, state.range(0), state.range(1), state.range(2),
          state.range(3), state.range(4), state.range(5), state.range(6) != 0,
          /*backward=*/true);
}
BENCHMARK(BM_Conv2dTableBackward)->Apply(TableConvShapes)->UseRealTime();

// One ST-ResNet training step (forward, MSE, backward, clip, Adam) at
// the geobench `train` shape: hidden 16, periodical (3, 1, 1), batch
// 32, 16x16 grid. Arg 0 runs on Device::kSerial, 1 on kParallel.
void BM_StResNetTrainStep(benchmark::State& state) {
  const Device device =
      state.range(0) == 0 ? Device::kSerial : Device::kParallel;
  DeviceGuard guard(device);
  datasets::YellowTripConfig yc;
  yc.num_records = 20000;
  yc.duration_sec = 10LL * 24 * 3600;
  yc.partitions_x = 16;
  yc.partitions_y = 16;
  yc.seed = 11;
  datasets::GridDataset dataset = datasets::MakeYellowTripNyc(yc);
  dataset.MinMaxNormalize();
  dataset.SetPeriodicalRepresentation(3, 1, 1);
  models::GridModelConfig mc;
  mc.channels = dataset.channels();
  mc.height = dataset.height();
  mc.width = dataset.width();
  mc.len_closeness = 3;
  mc.len_period = 1;
  mc.len_trend = 1;
  mc.hidden = 16;
  mc.seed = 11;
  models::StResNet model(mc);
  model.SetTraining(true);
  optim::Adam adam(model.Parameters(), 1e-3f);
  data::DataLoader loader(&dataset, 32, /*shuffle=*/false);
  data::Batch batch;
  loader.Reset();
  loader.Next(&batch);
  for (auto _ : state) {
    adam.ZeroGrad();
    autograd::Variable loss = autograd::MseLoss(model.Forward(batch), batch.y);
    loss.Backward();
    adam.ClipGradNorm(5.0f);
    adam.Step();
    benchmark::DoNotOptimize(loss.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.size);
}
BENCHMARK(BM_StResNetTrainStep)
    ->ArgName("parallel")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One eval forward (gradients off, the fused path serving takes) of a
// geobench `serve` model: model 0 is ST-ResNet on a 16x16 grid (hidden
// 16, periodical (3, 1, 1)), model 1 is SatCNN on 13x64x64 imagery
// (base_filters 8). Times each (model, precision, batch, device), so a
// B-row forward can be read against B one-row forwards and int8
// against f32.
void BM_EvalForward(benchmark::State& state) {
  const bool eo = state.range(0) == 1;
  const nn::Precision precision =
      state.range(1) == 1 ? nn::Precision::kInt8 : nn::Precision::kF32;
  const int64_t b = state.range(2);
  DeviceGuard guard(state.range(3) == 1 ? Device::kParallel : Device::kSerial);
  Rng rng(17);
  autograd::NoGradGuard no_grad;
  if (eo) {
    models::RasterModelConfig rc;
    rc.in_channels = 13;
    rc.base_filters = 8;
    rc.seed = 17;
    models::SatCnn model(rc);
    model.SetTraining(false);
    model.SetPrecision(precision);
    const autograd::Variable x(ts::Tensor::Rand({b, 13, 64, 64}, rng));
    for (auto _ : state) {
      benchmark::DoNotOptimize(model.Forward(x, autograd::Variable()).value());
    }
  } else {
    models::GridModelConfig gc;
    gc.len_period = 1;
    gc.hidden = 16;
    gc.seed = 17;
    models::StResNet model(gc);
    model.SetTraining(false);
    model.SetPrecision(precision);
    data::Batch batch;
    batch.x = ts::Tensor::Rand({b, 6, 16, 16}, rng);
    batch.extras = {ts::Tensor::Rand({b, 2, 16, 16}, rng),
                    ts::Tensor::Rand({b, 2, 16, 16}, rng)};
    batch.size = b;
    for (auto _ : state) {
      benchmark::DoNotOptimize(model.Forward(batch).value());
    }
  }
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_EvalForward)
    ->ArgNames({"eo", "int8", "b", "parallel"})
    ->ArgsProduct({{0, 1}, {0, 1}, {1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// SatCNN's three max pools at geobench `serve`'s shape (base_filters 8
// on 13x64x64: 8x64x64, 16x32x32 and 16x16x16 planes, kernel 2), on the
// serial device the serve batcher runs. eval:1 is the argmax-free eval
// kernel autograd::MaxPool2d runs without grad, eval:0 the grad path's
// argmax forward.
void BM_MaxPool2d(benchmark::State& state) {
  static constexpr int64_t kPools[3][3] = {{8, 64, 64}, {16, 32, 32},
                                           {16, 16, 16}};
  const int64_t* p = kPools[state.range(0)];
  const int64_t b = state.range(1);
  const bool eval = state.range(2) == 1;
  DeviceGuard guard(Device::kSerial);
  Rng rng(18);
  const ts::Tensor x = ts::Tensor::Rand({b, p[0], p[1], p[2]}, rng);
  for (auto _ : state) {
    if (eval) {
      benchmark::DoNotOptimize(ts::MaxPool2dEval(x, 2));
    } else {
      benchmark::DoNotOptimize(ts::MaxPool2dForward(x, 2));
    }
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_MaxPool2d)
    ->ArgNames({"pool", "b", "eval"})
    ->ArgsProduct({{0, 1, 2}, {1, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_GlcmFeatures(benchmark::State& state) {
  Rng rng(6);
  const int64_t size = state.range(0);
  raster::RasterImage img(size, size, 1);
  for (auto& v : img.data()) v = static_cast<float>(rng.Uniform(0, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster::GlcmFeatureVector(img, 0));
  }
}
BENCHMARK(BM_GlcmFeatures)->Arg(28)->Arg(64)->Arg(128);

void BM_StrTreeBuildAndProbe(benchmark::State& state) {
  Rng rng(7);
  const int64_t n = state.range(0);
  std::vector<spatial::StrTree::Entry> entries;
  for (int64_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 1000);
    const double y = rng.Uniform(0, 1000);
    entries.push_back({spatial::Envelope(x, y, x + 1, y + 1), i});
  }
  spatial::StrTree tree(entries);
  std::vector<spatial::Point> probes;
  for (int i = 0; i < 1000; ++i) {
    probes.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  for (auto _ : state) {
    int64_t hits = 0;
    for (const auto& p : probes) {
      tree.Visit(spatial::Envelope(p.x, p.y, p.x, p.y),
                 [&hits](int64_t) { ++hits; });
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_StrTreeBuildAndProbe)->Arg(1000)->Arg(100000);

// Count + sum group-by over `n` rows in 4 partitions, keys drawn from
// [0, max_key].
void RunGroupBy(benchmark::State& state, int64_t max_key) {
  Rng rng(8);
  const int64_t n = state.range(0);
  std::vector<int64_t> keys(n);
  std::vector<double> values(n);
  for (int64_t i = 0; i < n; ++i) {
    keys[i] = rng.UniformInt(0, max_key);
    values[i] = rng.Uniform(0, 1);
  }
  df::DataFrame frame =
      df::DataFrame::FromColumns({{"k", df::Column::FromInt64s(keys)},
                                  {"v", df::Column::FromDoubles(values)}})
          .Repartition(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.GroupByAgg(
        {"k"}, {{df::AggKind::kCount, "", "n"},
                {df::AggKind::kSum, "v", "s"}}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// 501 distinct keys: small tables that stay in cache.
void BM_DataFrameGroupBy(benchmark::State& state) { RunGroupBy(state, 500); }
BENCHMARK(BM_DataFrameGroupBy)->Arg(100000)->Arg(1000000)->UseRealTime();

// Keys from [0, n): nearly every row its own group, the shape of the
// Fig-8 (cell, timestep) aggregation.
void BM_DataFrameGroupByNearUnique(benchmark::State& state) {
  RunGroupBy(state, state.range(0) - 1);
}
BENCHMARK(BM_DataFrameGroupByNearUnique)
    ->Arg(100000)
    ->Arg(1000000)
    ->UseRealTime();

// The stream pipeline's event ring (DESIGN.md §14) at geobench stream's
// capacity: the benchmark thread produces ticks of kHandoffTick events,
// one consumer thread drains them. per_event is the old handoff, a Push
// and a Pop per event; per_tick is the pipeline's, one PushAll per tick
// and PopBatch(256) on the consumer. Reported as ns per event moved.
constexpr size_t kHandoffTick = 256;  // about one geobench stream tick

void BM_StreamHandoff(benchmark::State& state, bool per_tick) {
  BoundedQueue<stream::Event> ring(8192);
  std::thread consumer([&ring, per_tick] {
    if (per_tick) {
      std::vector<stream::Event> batch;
      while (ring.PopBatch(256, &batch) > 0) batch.clear();
    } else {
      stream::Event e;
      while (ring.Pop(&e)) {
      }
    }
  });
  std::vector<stream::Event> tick(kHandoffTick);
  for (size_t i = 0; i < tick.size(); ++i) {
    tick[i].time_sec = static_cast<int64_t>(i);
  }
  for (auto _ : state) {
    if (per_tick) {
      ring.PushAll(tick.data(), tick.size());
    } else {
      for (stream::Event& e : tick) ring.Push(e);
    }
  }
  ring.Close();
  consumer.join();
  const int64_t events =
      state.iterations() * static_cast<int64_t>(kHandoffTick);
  state.SetItemsProcessed(events);
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_StreamHandoff, per_event, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_StreamHandoff, per_tick, true)->UseRealTime();

// The taxi event source at geobench stream's density (60 s ticks of
// about 260 events): Poisson count, uniform time, hot-spot location
// mixture and the Event conversion, in ns per event.
void BM_TaxiEventSource(benchmark::State& state) {
  synth::TaxiStreamConfig config;
  config.events_per_sec = 6.8;
  config.duration_sec = int64_t{1} << 40;
  config.tick_sec = 60;
  config.seed = 1;
  stream::TaxiEventSource source(config);
  std::vector<stream::Event> tick;
  int64_t events = 0;
  for (auto _ : state) {
    tick.clear();
    source.NextTick(&tick);
    events += static_cast<int64_t>(tick.size());
    benchmark::DoNotOptimize(tick.data());
  }
  state.SetItemsProcessed(events);
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TaxiEventSource);

// ---------------------------------------------------------------------------
// GEMM sweep: naive baseline vs blocked kernel (serial and parallel),
// written to a JSON report. Invoked by --gemm_json=PATH; sizes cover the
// acceptance shape (512^3) plus rectangular shapes taken from the paper
// models' hot GEMMs (conv im2col products and linear/RNN projections).
// ---------------------------------------------------------------------------

struct GemmShape {
  const char* label;
  int64_t m, k, n;
};

// Times `fn` (one full GEMM) and returns best-of-reps GFLOP/s. Repeats
// until ~200 ms of accumulated runtime so fast shapes are not in the
// timer noise.
template <typename Fn>
double MeasureGflops(int64_t m, int64_t k, int64_t n, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  const double flop = 2.0 * static_cast<double>(m) * k * n;
  double best_sec = 1e30;
  double total_sec = 0.0;
  int reps = 0;
  while ((total_sec < 0.2 || reps < 3) && reps < 200) {
    const auto t0 = Clock::now();
    fn();
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    best_sec = std::min(best_sec, sec);
    total_sec += sec;
    ++reps;
  }
  return flop / best_sec * 1e-9;
}

int RunGemmSweep(const std::string& json_path, bool smoke) {
  // Fail before measuring, not after: a full sweep takes minutes.
  bench::BenchJsonWriter json(json_path, "gemm");
  if (!json.ok()) return 1;
  // Full sizes: 512^3 is the acceptance shape; 256^3 sits near the L2
  // capacity knee; the rectangular shapes are im2col products
  // (F x C*KH*KW @ C*KH*KW x OH*OW) and batched linear projections from
  // the paper's models (SatCNN/DeepSatV2 convs, LSTM gates).
  std::vector<GemmShape> shapes;
  if (smoke) {
    shapes = {
        {"square_64", 64, 64, 64},
        {"conv_tiny", 16, 72, 256},
    };
  } else {
    shapes = {
        {"square_256", 256, 256, 256},
        {"square_512", 512, 512, 512},
        {"conv_first_layer", 32, 117, 4096},
        {"conv_mid_layer", 64, 576, 1024},
        {"conv_backward_gw", 576, 4096, 64},
        {"linear_head", 64, 1024, 128},
        {"lstm_gates", 32, 256, 1024},
    };
  }

  Rng rng(11);
  std::string rows;
  std::printf("%-18s %10s %10s %10s %8s %8s\n", "shape", "naive", "serial",
              "parallel", "ser_x", "par_x");
  for (const GemmShape& s : shapes) {
    ts::Tensor a = ts::Tensor::Randn({s.m, s.k}, rng);
    ts::Tensor b = ts::Tensor::Randn({s.k, s.n}, rng);
    ts::Tensor c({s.m, s.n});

    const double naive = MeasureGflops(s.m, s.k, s.n, [&] {
      ts::ReferenceGemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    });
    double serial = 0.0;
    {
      DeviceGuard guard(Device::kSerial);
      serial = MeasureGflops(s.m, s.k, s.n, [&] {
        ts::Gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
      });
    }
    double parallel = 0.0;
    {
      DeviceGuard guard(Device::kParallel);
      parallel = MeasureGflops(s.m, s.k, s.n, [&] {
        ts::Gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
      });
    }

    std::printf("%-18s %10.2f %10.2f %10.2f %7.2fx %7.2fx\n", s.label, naive,
                serial, parallel, serial / naive, parallel / naive);

    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"label\": \"%s\", \"m\": %lld, \"k\": %lld, "
                  "\"n\": %lld, \"naive_gflops\": %.3f, "
                  "\"blocked_serial_gflops\": %.3f, "
                  "\"blocked_parallel_gflops\": %.3f, "
                  "\"serial_speedup\": %.3f, \"parallel_speedup\": %.3f}",
                  s.label, static_cast<long long>(s.m),
                  static_cast<long long>(s.k), static_cast<long long>(s.n),
                  naive, serial, parallel, serial / naive, parallel / naive);
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }

  const ts::GemmKernelShape kernel = ts::GemmKernelInfo();
  std::fprintf(json.stream(),
               "  \"flop_formula\": \"2*m*k*n, best-of-reps timing\",\n"
               "  \"pool_threads\": %d,\n"
               "  \"gemm_lane_floats\": %lld,\n  \"gemm_tile\": \"%lldx%lld\",\n"
               "  \"gemm_fma\": %s,\n  \"smoke\": %s,\n"
               "  \"shapes\": [\n%s\n  ],\n",
               ThreadPool::Global().num_threads(),
               static_cast<long long>(kernel.lane),
               static_cast<long long>(kernel.rows),
               static_cast<long long>(kernel.cols), kernel.fma ? "true" : "false",
               smoke ? "true" : "false", rows.c_str());
  json.Finish();
  return 0;
}

// ---------------------------------------------------------------------------
// Observability overhead A/B: the same GEMM workload with the
// instrumentation runtime-enabled vs runtime-disabled. The disabled
// path is one relaxed atomic load per instrumented site; the full
// sweep exits 1 when the worst delta exceeds the 2% budget. The
// --gemm_smoke sweep (128^3, too short to resolve 2%) only reports.
// Invoked by --obs_ab[=PATH] (PATH gets a small JSON report).
// ---------------------------------------------------------------------------

int RunObsAb(const std::string& json_path, bool smoke) {
  const std::vector<GemmShape> shapes =
      smoke ? std::vector<GemmShape>{{"square_128", 128, 128, 128}}
            : std::vector<GemmShape>{{"square_256", 256, 256, 256},
                                     {"conv_mid_layer", 64, 576, 1024}};
  Rng rng(13);
  std::string rows;
  double worst_delta_pct = 0.0;
  std::printf("%-18s %12s %12s %9s\n", "shape", "obs_off", "obs_on",
              "delta");
  for (const GemmShape& s : shapes) {
    ts::Tensor a = ts::Tensor::Randn({s.m, s.k}, rng);
    ts::Tensor b = ts::Tensor::Randn({s.k, s.n}, rng);
    ts::Tensor c({s.m, s.n});
    const auto run = [&] {
      ts::Gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    };
    // Interleave the two arms so thermal / frequency drift hits both.
    double off = 0.0;
    double on = 0.0;
    for (int round = 0; round < 3; ++round) {
      obs::SetEnabled(false);
      off = std::max(off, MeasureGflops(s.m, s.k, s.n, run));
      obs::SetEnabled(true);
      on = std::max(on, MeasureGflops(s.m, s.k, s.n, run));
    }
    const double delta_pct = (off - on) / off * 100.0;
    worst_delta_pct = std::max(worst_delta_pct, delta_pct);
    std::printf("%-18s %10.2f %10.2f %+8.2f%%\n", s.label, off, on,
                delta_pct);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"label\": \"%s\", \"obs_off_gflops\": %.3f, "
                  "\"obs_on_gflops\": %.3f, \"delta_pct\": %.3f}",
                  s.label, off, on, delta_pct);
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }
  constexpr double kBudgetPct = 2.0;
  std::printf("worst overhead: %.2f%% (budget %.0f%%%s)\n", worst_delta_pct,
              kBudgetPct, smoke ? ", smoke: not gated" : "");
  if (!json_path.empty()) {
    bench::BenchJsonWriter json(json_path, "obs_ab");
    if (!json.ok()) return 1;
    std::fprintf(json.stream(),
                 "  \"worst_delta_pct\": %.3f,\n  \"budget_pct\": %.1f,\n"
                 "  \"shapes\": [\n%s\n  ],\n",
                 worst_delta_pct, kBudgetPct, rows.c_str());
  }
  if (!smoke && worst_delta_pct > kBudgetPct) {
    std::printf("FAIL: observability overhead %.2f%% exceeds %.0f%%\n",
                worst_delta_pct, kBudgetPct);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Allocation check: epochs of the Table VII Periodical-CNN training
// loop (Temperature, small scale, batch 16) on the storage pool.
// Reports the best epoch time and the pool hit-rate after a warm-up
// epoch, and writes BENCH_alloc.json. The gate is a >= 90% hit-rate.
// (The pool-on vs pool-off epoch A/B is recorded in EXPERIMENTS.md.)
// ---------------------------------------------------------------------------

int RunAllocAb(const std::string& json_path, bool smoke) {
  namespace ds = ::geotorch::datasets;
  const int64_t steps = smoke ? 120 : 400;
  ds::GridDataset dataset = ds::MakeTemperature(steps, 16, 32, 3);
  dataset.MinMaxNormalize();
  dataset.SetPeriodicalRepresentation(3, 2, 1);

  models::GridModelConfig mc;
  mc.channels = 1;
  mc.height = 16;
  mc.width = 32;
  mc.hidden = 16;
  models::PeriodicalCnn model(mc);
  models::TrainConfig tc;
  tc.batch_size = 16;

  StoragePool& pool = StoragePool::Global();

  // Warm-up epoch fills the free lists (and JITs page faults, caches).
  models::TimeOneEpochGrid(model, dataset, tc);

  const int kReps = smoke ? 1 : 3;
  double epoch_secs = 1e30;
  double hit_rate = 0.0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t bytes_recycled = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    pool.ResetStats();
    obs::Reset();
    epoch_secs =
        std::min(epoch_secs, models::TimeOneEpochGrid(model, dataset, tc));
    const StoragePool::Stats stats = pool.GetStats();
    if (stats.hits + stats.misses > 0) {
      hits = stats.hits;
      misses = stats.misses;
      bytes_recycled = stats.bytes_recycled;
      hit_rate = static_cast<double>(stats.hits) /
                 static_cast<double>(stats.hits + stats.misses);
    }
  }

  std::printf("alloc (Periodical CNN, Temperature %lldx16x32, batch %d):\n",
              static_cast<long long>(steps), static_cast<int>(tc.batch_size));
  std::printf("  %.3f s/epoch (hit-rate %.1f%%, %lld hits, %lld misses, "
              "%.1f MiB recycled; gate 90%%)\n",
              epoch_secs, 100.0 * hit_rate, static_cast<long long>(hits),
              static_cast<long long>(misses),
              static_cast<double>(bytes_recycled) / (1024.0 * 1024.0));

  if (!json_path.empty()) {
    bench::BenchJsonWriter json(json_path, "alloc_ab");
    if (!json.ok()) return 1;
    std::fprintf(json.stream(),
                 "  \"config\": \"table7 Periodical CNN, Temperature "
                 "%lldx16x32, batch %d\",\n"
                 "  \"epoch_secs\": %.4f,\n"
                 "  \"pool_hit_rate\": %.4f,\n"
                 "  \"pool_hits\": %lld,\n  \"pool_misses\": %lld,\n"
                 "  \"bytes_recycled\": %lld,\n"
                 "  \"hit_rate_gate\": 0.9,\n",
                 static_cast<long long>(steps),
                 static_cast<int>(tc.batch_size), epoch_secs, hit_rate,
                 static_cast<long long>(hits),
                 static_cast<long long>(misses),
                 static_cast<long long>(bytes_recycled));
  }
  return hit_rate >= 0.9 ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Fused eval-path A/B (DESIGN.md §13): the conv forward of each
// precision (bias+activation epilogue, direct kernels, 1x1 bypass)
// against an unfused composition, on the conv shapes SatCNN and DeepSAT
// run (the six `gated` rows) and on the convs of geobench `serve`'s
// SatCNN (13x64x64 input, base_filters 8). The f32 unfused arm is
// Conv2dForward + a separate Relu: both arms share the direct kernel,
// so the f32 ratio is reported, not gated. The int8 unfused arm is the
// materialized composition fusion_test checks the int8 conv against,
// run per sample on the pool: Im2Col, QuantizeInt8 with the per-batch
// scale, GemmInt8, a bias pass, then a separate Relu. The int8 fused
// arm packs its weights once, as Conv2d does at SetPrecision. Each row
// also reports int8_vs_f32_fused = f32 fused time / int8 fused time
// (above 1 when int8 is faster), not gated. Invoked by
// --fusion_ab[=PATH]; the acceptance gate is the geometric mean of the
// int8 fused/unfused speedups over the six gated 3x3 shapes (>= 1.3x).
// ---------------------------------------------------------------------------

struct FusionOpShape {
  const char* name;
  int64_t c, f, hw, k, stride, pad;
  bool gated;
};

template <typename Fn>
double TimeBestUs(Fn&& fn, int reps, int blocks) {
  fn();
  fn();  // warm caches and lazy workspaces
  double best = 1e30;
  for (int b = 0; b < blocks; ++b) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, sw.ElapsedSeconds() * 1e6 / reps);
  }
  return best;
}

// The unfused int8 conv + ReLU: a materialized, quantized patch matrix
// per sample, a plain GemmInt8, then separate bias and ReLU passes.
ts::Tensor UnfusedInt8ConvRelu(const ts::Tensor& x, const int8_t* w_q,
                               const float* w_scales, int64_t f, int64_t k,
                               const ts::Tensor& bias,
                               const ts::ConvSpec& spec) {
  const int64_t n = x.size(0);
  const int64_t ck = x.size(1) * k * k;
  const int64_t oh = ts::ConvOutSize(x.size(2), k, spec.stride, spec.padding);
  const int64_t ow = ts::ConvOutSize(x.size(3), k, spec.stride, spec.padding);
  const int64_t l = oh * ow;
  const float scale = ts::SymmetricScale(ts::AbsMax(x.data(), x.numel()));
  ts::Tensor out = ts::Tensor::Uninitialized({n, f, oh, ow});
  ThreadPool::Global().ParallelFor(n, [&](int64_t i) {
    const ts::Tensor cols = ts::Im2Col(x, i, k, k, spec);
    int8_t* cols_q = reinterpret_cast<int8_t*>(
        ThreadLocalWorkspace(kWorkspaceQuant, (ck * l + 3) / 4));
    ts::QuantizeInt8(cols.data(), ck * l, scale, cols_q);
    ts::Int8GemmOptions opts;
    opts.a_scales = w_scales;
    opts.a_scales_len = f;
    opts.b_scales = &scale;
    opts.b_scales_len = 1;
    float* out_i = out.data() + i * f * l;
    ts::GemmInt8(w_q, cols_q, out_i, f, ck, l, opts);
    for (int64_t fi = 0; fi < f; ++fi) {
      const float b = bias.data()[fi];
      for (int64_t j = 0; j < l; ++j) out_i[fi * l + j] += b;
    }
  });
  return ts::Relu(out);
}

int RunFusionAb(const std::string& json_path, bool smoke) {
  DeviceGuard device(Device::kParallel);

  static const FusionOpShape kShapes[] = {
      {"satcnn_conv1a", 4, 16, 28, 3, 1, 1, true},
      {"satcnn_conv1b", 16, 16, 28, 3, 1, 1, true},
      {"satcnn_conv2a", 16, 32, 14, 3, 1, 1, true},
      {"satcnn_conv2b", 32, 32, 14, 3, 1, 1, true},
      {"satcnn_conv3", 32, 32, 7, 3, 1, 1, true},
      {"deepsat_conv1", 4, 64, 28, 3, 1, 1, true},
      {"pointwise_1x1", 32, 16, 14, 1, 1, 0, false},
      {"eo_conv1a", 13, 8, 64, 3, 1, 1, false},
      {"eo_conv1b", 8, 8, 64, 3, 1, 1, false},
      {"eo_conv2a", 8, 16, 32, 3, 1, 1, false},
      {"eo_conv2b", 16, 16, 32, 3, 1, 1, false},
      {"eo_conv3", 16, 16, 16, 3, 1, 1, false},
  };
  const int n_shapes =
      smoke ? 2 : static_cast<int>(sizeof(kShapes) / sizeof(kShapes[0]));
  const int64_t batch = smoke ? 2 : 4;
  const int op_reps = smoke ? 5 : 100;
  const int blocks = smoke ? 1 : 3;

  // us[precision][0]=unfused, [1]=fused; precision 0=f32 1=int8.
  std::vector<std::array<std::array<double, 2>, 2>> op_us(n_shapes);

  std::printf("fusion A/B, op level (batch %lld, best of %d x %d reps):\n",
              static_cast<long long>(batch), blocks, op_reps);
  std::printf("  %-14s %9s %9s %6s | %9s %9s %6s | %9s\n", "shape",
              "f32 unf", "f32 fus", "x", "int8 unf", "int8 fus", "x",
              "int8/f32");
  double log_sum_3x3 = 0.0;
  int n_3x3 = 0;
  for (int s = 0; s < n_shapes; ++s) {
    const FusionOpShape& sh = kShapes[s];
    Rng rng(40 + static_cast<uint64_t>(s));
    const ts::Tensor x =
        ts::Tensor::Randn({batch, sh.c, sh.hw, sh.hw}, rng);
    const ts::Tensor w =
        ts::Tensor::Randn({sh.f, sh.c, sh.k, sh.k}, rng, 0.0f, 0.2f);
    const ts::Tensor bias = ts::Tensor::Randn({sh.f}, rng, 0.0f, 0.1f);
    const ts::ConvSpec spec{sh.stride, sh.pad};
    const int64_t ck = sh.c * sh.k * sh.k;
    std::vector<int8_t> w_q(static_cast<size_t>(w.numel()));
    std::vector<float> w_scales(static_cast<size_t>(sh.f));
    ts::QuantizeRowsInt8(w.data(), sh.f, ck, w_q.data(), w_scales.data());
    const ts::Int8ConvWeights w_packed = ts::PackInt8ConvWeights(
        w_q.data(), w_scales.data(), sh.f, sh.c, sh.k, sh.k);

    op_us[s][0][0] = TimeBestUs(
        [&] { (void)ts::Relu(ts::Conv2dForward(x, w, bias, spec)); },
        op_reps, blocks);
    op_us[s][0][1] = TimeBestUs(
        [&] {
          (void)ts::Conv2dForward(x, w, bias, spec, ts::EpilogueAct::kRelu);
        },
        op_reps, blocks);
    op_us[s][1][0] = TimeBestUs(
        [&] {
          (void)UnfusedInt8ConvRelu(x, w_q.data(), w_scales.data(), sh.f,
                                    sh.k, bias, spec);
        },
        op_reps, blocks);
    op_us[s][1][1] = TimeBestUs(
        [&] {
          (void)ts::Conv2dForwardInt8(x, w_packed, 0.0f, bias, spec,
                                      ts::EpilogueAct::kRelu);
        },
        op_reps, blocks);
    const double int8_speedup = op_us[s][1][0] / op_us[s][1][1];
    if (sh.gated) {
      log_sum_3x3 += std::log(int8_speedup);
      ++n_3x3;
    }
    std::printf("  %-14s %9.1f %9.1f %5.2fx | %9.1f %9.1f %5.2fx | %8.2fx\n",
                sh.name, op_us[s][0][0], op_us[s][0][1],
                op_us[s][0][0] / op_us[s][0][1], op_us[s][1][0],
                op_us[s][1][1], int8_speedup, op_us[s][0][1] / op_us[s][1][1]);
  }
  const double int8_geomean = std::exp(log_sum_3x3 / std::max(n_3x3, 1));
  std::printf("  int8 gated 3x3 geomean speedup: %.2fx (gate: 1.30x)\n",
              int8_geomean);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"benchmark\": \"fusion_ab\",\n"
                 "  \"schema_version\": 4,\n"
                 "  \"config\": \"fused vs unfused eval conv + relu, batch "
                 "%lld op level\",\n"
                 "  \"pool_threads\": %d,\n  \"smoke\": %s,\n"
                 "  \"conv_ops\": [\n",
                 static_cast<long long>(batch),
                 ThreadPool::Global().num_threads(), smoke ? "true" : "false");
    for (int s = 0; s < n_shapes; ++s) {
      const FusionOpShape& sh = kShapes[s];
      std::fprintf(
          out,
          "    {\"shape\": \"%s\", \"c\": %lld, \"f\": %lld, \"hw\": %lld, "
          "\"k\": %lld, \"stride\": %lld, \"pad\": %lld, \"gated\": %s,\n"
          "     \"f32_unfused_us\": %.1f, \"f32_fused_us\": %.1f, "
          "\"f32_speedup\": %.3f,\n"
          "     \"int8_unfused_us\": %.1f, \"int8_fused_us\": %.1f, "
          "\"int8_speedup\": %.3f, \"int8_vs_f32_fused\": %.3f}%s\n",
          sh.name, static_cast<long long>(sh.c), static_cast<long long>(sh.f),
          static_cast<long long>(sh.hw), static_cast<long long>(sh.k),
          static_cast<long long>(sh.stride), static_cast<long long>(sh.pad),
          sh.gated ? "true" : "false", op_us[s][0][0], op_us[s][0][1],
          op_us[s][0][0] / op_us[s][0][1], op_us[s][1][0], op_us[s][1][1],
          op_us[s][1][0] / op_us[s][1][1], op_us[s][0][1] / op_us[s][1][1],
          s + 1 < n_shapes ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"summary\": {\n"
                 "    \"int8_3x3_geomean_speedup\": %.3f,\n"
                 "    \"gated_metric\": \"int8_3x3_geomean_speedup\",\n"
                 "    \"speedup_gate\": 1.3\n  }\n}\n",
                 int8_geomean);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (smoke) return 0;
  return int8_geomean >= 1.3 ? 0 : 2;
}

}  // namespace
}  // namespace geotorch

// Custom main: `--gemm_json=PATH [--gemm_smoke]` runs the GEMM sweep
// and writes the JSON report; `--obs_ab[=PATH]` measures observability
// overhead on the GEMM hot path; `--alloc_ab[=PATH]` checks the
// storage-pool hit-rate on the table7 epoch loop (default PATH
// BENCH_alloc.json, smoke-sized with --gemm_smoke);
// `--fusion_ab[=PATH]` A/B-tests the fused eval-path convs (DESIGN.md
// §13) on SatCNN/DeepSAT conv shapes (default PATH BENCH_fusion.json);
// any other invocation behaves exactly
// like BENCHMARK_MAIN(). `--trace_json=PATH` additionally dumps the
// observability snapshot (counters, histograms, spans) after any mode.
int main(int argc, char** argv) {
  std::string gemm_json;
  std::string trace_json;
  std::string obs_ab_json;
  std::string alloc_ab_json = "BENCH_alloc.json";
  std::string fusion_ab_json = "BENCH_fusion.json";
  bool gemm_smoke = false;
  bool obs_ab = false;
  bool alloc_ab = false;
  bool fusion_ab = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--gemm_json=", 12) == 0) {
      gemm_json = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--gemm_smoke") == 0) {
      gemm_smoke = true;
    } else if (std::strncmp(argv[i], "--trace_json=", 13) == 0) {
      trace_json = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--obs_ab=", 9) == 0) {
      obs_ab = true;
      obs_ab_json = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--obs_ab") == 0) {
      obs_ab = true;
    } else if (std::strncmp(argv[i], "--alloc_ab=", 11) == 0) {
      alloc_ab = true;
      alloc_ab_json = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--alloc_ab") == 0) {
      alloc_ab = true;
    } else if (std::strncmp(argv[i], "--fusion_ab=", 12) == 0) {
      fusion_ab = true;
      fusion_ab_json = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--fusion_ab") == 0) {
      fusion_ab = true;
    }
  }
  int rc = 0;
  if (fusion_ab) {
    rc = geotorch::RunFusionAb(fusion_ab_json, gemm_smoke);
  } else if (alloc_ab) {
    rc = geotorch::RunAllocAb(alloc_ab_json, gemm_smoke);
  } else if (obs_ab) {
    rc = geotorch::RunObsAb(obs_ab_json, gemm_smoke);
  } else if (!gemm_json.empty()) {
    rc = geotorch::RunGemmSweep(gemm_json, gemm_smoke);
  } else {
    // Strip --trace_json before handing argv to google-benchmark, which
    // rejects flags it does not know.
    std::vector<char*> bench_argv;
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--trace_json=", 13) != 0) {
        bench_argv.push_back(argv[i]);
      }
    }
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data())) {
      return 1;
    }
    const geotorch::tensor::GemmKernelShape kernel =
        geotorch::tensor::GemmKernelInfo();
    benchmark::AddCustomContext(
        "gemm_kernel", std::to_string(kernel.lane) + " floats/lane, " +
                           std::to_string(kernel.rows) + "x" +
                           std::to_string(kernel.cols) + " tile, " +
                           (kernel.fma ? "fma" : "no fma"));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (!trace_json.empty()) {
    if (geotorch::obs::WriteJsonFile(trace_json)) {
      std::printf("wrote %s\n", trace_json.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
