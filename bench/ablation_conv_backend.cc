// Ablation: convolution algorithm and execution backend. The deep
// learning module implements Conv2d as a blocked GEMM over the patch
// matrix (at stride 1 the direct kernel reads it straight from the
// image) dispatched to either backend; this bench compares it against
// a naive 7-loop convolution to justify the design choice that
// dominates the Table VII / Fig. 9 runtimes.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "tensor/conv.h"
#include "tensor/device.h"
#include "tensor/ops.h"

namespace geotorch::bench {
namespace {

namespace ts = ::geotorch::tensor;

// Reference naive convolution (no im2col, no blocking), serial.
ts::Tensor DirectConv2d(const ts::Tensor& x, const ts::Tensor& w,
                        const ts::ConvSpec& spec) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t f = w.size(0);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t oh = ts::ConvOutSize(h, kh, spec.stride, spec.padding);
  const int64_t ow = ts::ConvOutSize(wd, kw, spec.stride, spec.padding);
  ts::Tensor out = ts::Tensor::Zeros({n, f, oh, ow});
  const float* px = x.data();
  const float* pw = w.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t oi = 0; oi < oh; ++oi) {
        for (int64_t oj = 0; oj < ow; ++oj) {
          float acc = 0.0f;
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < kh; ++ki) {
              const int64_t ii = oi * spec.stride + ki - spec.padding;
              if (ii < 0 || ii >= h) continue;
              for (int64_t kj = 0; kj < kw; ++kj) {
                const int64_t jj = oj * spec.stride + kj - spec.padding;
                if (jj < 0 || jj >= wd) continue;
                acc += px[((i * c + ci) * h + ii) * wd + jj] *
                       pw[((fi * c + ci) * kh + ki) * kw + kj];
              }
            }
          }
          po[((i * f + fi) * oh + oi) * ow + oj] = acc;
        }
      }
    }
  }
  return out;
}

void Run(const BenchArgs& args) {
  const int reps = args.paper_scale ? 20 : 5;
  Rng rng(2);
  std::printf("ABLATION: Convolution Algorithm and Backend (%d reps)\n",
              reps);
  PrintRule();
  std::printf("%-26s %-12s %-14s %-14s\n", "workload", "naive (s)",
              "gemm-ser (s)", "gemm-par (s)");
  PrintRule();
  struct Case {
    int64_t n, c, hw, f, k;
  };
  for (const Case& c : {Case{8, 8, 32, 16, 3}, Case{8, 16, 64, 16, 3},
                        Case{4, 32, 64, 32, 3}}) {
    ts::Tensor x = ts::Tensor::Randn({c.n, c.c, c.hw, c.hw}, rng);
    ts::Tensor w = ts::Tensor::Randn({c.f, c.c, c.k, c.k}, rng, 0, 0.1f);
    ts::ConvSpec spec{.stride = 1, .padding = 1};

    Stopwatch t1;
    ts::Tensor ref;
    for (int r = 0; r < reps; ++r) ref = DirectConv2d(x, w, spec);
    const double direct = t1.ElapsedSeconds();

    double serial;
    double parallel;
    ts::Tensor got;
    {
      ts::DeviceGuard guard(ts::Device::kSerial);
      Stopwatch t2;
      for (int r = 0; r < reps; ++r) {
        got = ts::Conv2dForward(x, w, ts::Tensor(), spec);
      }
      serial = t2.ElapsedSeconds();
    }
    {
      ts::DeviceGuard guard(ts::Device::kParallel);
      Stopwatch t3;
      for (int r = 0; r < reps; ++r) {
        got = ts::Conv2dForward(x, w, ts::Tensor(), spec);
      }
      parallel = t3.ElapsedSeconds();
    }
    if (!ts::AllClose(ref, got, 1e-3f, 1e-4f)) {
      std::printf("WARNING: conv results differ!\n");
    }
    char label[64];
    std::snprintf(label, sizeof(label), "n%lldc%lld %lldx%lld f%lld k%lld",
                  static_cast<long long>(c.n), static_cast<long long>(c.c),
                  static_cast<long long>(c.hw), static_cast<long long>(c.hw),
                  static_cast<long long>(c.f), static_cast<long long>(c.k));
    std::printf("%-26s %-12.3f %-14.3f %-14.3f\n", label, direct, serial,
                parallel);
  }
  PrintRule();
}

}  // namespace
}  // namespace geotorch::bench

int main(int argc, char** argv) {
  geotorch::bench::Run(geotorch::bench::BenchArgs::Parse(argc, argv));
  return 0;
}
