// Thread-safety harness for the int8 GEMM and direct conv kernels; the
// `tsan` preset runs it under ThreadSanitizer, and with the portable
// (non-native) micro-kernels. Not a gtest: it drives the int8 GEMM
// through the same 2-D tile dispatch as the f32 kernel — concurrent
// int8 panel packing into per-thread workspaces, disjoint C-tile
// stores, and the prepacked-B read-only sharing that serving relies on
// — and the direct int8 conv through its per-sample pool dispatch and
// shared packed weights. Exact i32 accumulation promises serial ==
// parallel bitwise, so every check here is a memcmp, not a tolerance.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"

namespace ts = geotorch::tensor;
using ::geotorch::Device;
using ::geotorch::DeviceGuard;
using ::geotorch::SetDefaultDevice;

namespace {

int failures = 0;

void FillUniform(std::vector<float>& v, uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& x : v) x = dist(engine);
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b,
                  const char* what, int64_t m, int64_t k, int64_t n) {
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
    return true;
  }
  std::fprintf(stderr, "FAIL %s m=%lld k=%lld n=%lld: bitwise mismatch\n",
               what, static_cast<long long>(m), static_cast<long long>(k),
               static_cast<long long>(n));
  ++failures;
  return false;
}

// Serial reference vs parallel, on-the-fly vs prepacked B — all three
// must agree bitwise while TSan watches the pool traffic.
void CheckInt8Once(int64_t m, int64_t k, int64_t n, uint64_t seed) {
  std::vector<float> a(m * k), b(k * n);
  FillUniform(a, seed);
  FillUniform(b, seed + 1);

  const float a_scale = ts::SymmetricScale(ts::AbsMax(a.data(), m * k));
  const float b_scale = ts::SymmetricScale(ts::AbsMax(b.data(), k * n));
  std::vector<int8_t> a_q(m * k), b_q(k * n);
  ts::QuantizeInt8(a.data(), m * k, a_scale, a_q.data());
  ts::QuantizeInt8(b.data(), k * n, b_scale, b_q.data());

  ts::Int8GemmOptions opts;
  opts.a_scales = &a_scale;
  opts.a_scales_len = 1;
  opts.b_scales = &b_scale;
  opts.b_scales_len = 1;

  std::vector<float> c_serial(m * n, 0.0f);
  {
    DeviceGuard serial(Device::kSerial);
    ts::GemmInt8(a_q.data(), b_q.data(), c_serial.data(), m, k, n, opts);
  }

  std::vector<float> c_parallel(m * n, 0.0f);
  ts::GemmInt8(a_q.data(), b_q.data(), c_parallel.data(), m, k, n, opts);
  BitwiseEqual(c_serial, c_parallel, "int8 serial vs parallel", m, k, n);

  std::vector<int8_t> packed(ts::Int8PackedBSize(k, n));
  ts::PackInt8B(b_q.data(), k, n, packed.data());
  std::vector<float> c_packed(m * n, 0.0f);
  ts::GemmInt8(a_q.data(), ts::Int8PackedB{packed.data()}, c_packed.data(), m,
               k, n, opts);
  BitwiseEqual(c_serial, c_packed, "int8 prepacked", m, k, n);
}

// The direct int8 conv on one batch: the serial device (one thread
// stages and walks every sample) against the parallel device (samples
// on pool workers, each staging into its own workspace), both against a
// scalar int32 reference with the kernel's dequantization,
// (w_scale · act_scale) · float(Σ w·q). Odd widths leave partial column
// tiles, padding puts 128-offset taps on the edges, and stride 2 uses
// the phase-split staging.
void CheckConvInt8Once(int64_t n, int64_t c, int64_t f, int64_t h, int64_t w,
                       int64_t k, int64_t stride, int64_t pad, uint64_t seed) {
  std::vector<float> x(n * c * h * w), wf(f * c * k * k);
  FillUniform(x, seed);
  FillUniform(wf, seed + 1);
  const int64_t ck = c * k * k;
  std::vector<int8_t> w_q(f * ck);
  std::vector<float> w_scales(f);
  ts::QuantizeRowsInt8(wf.data(), f, ck, w_q.data(), w_scales.data());
  const ts::Int8ConvWeights packed =
      ts::PackInt8ConvWeights(w_q.data(), w_scales.data(), f, c, k, k);
  const float act_scale = ts::SymmetricScale(ts::AbsMax(x.data(), x.size()));
  const int64_t oh = ts::ConvOutSize(h, k, stride, pad);
  const int64_t ow = ts::ConvOutSize(w, k, stride, pad);

  std::vector<int8_t> xq(x.size());
  ts::QuantizeInt8(x.data(), x.size(), act_scale, xq.data());
  std::vector<float> ref(n * f * oh * ow);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t oi = 0; oi < oh; ++oi) {
        for (int64_t oj = 0; oj < ow; ++oj) {
          int32_t acc = 0;
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < k; ++ki) {
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t ii = oi * stride + ki - pad;
                const int64_t jj = oj * stride + kj - pad;
                if (ii < 0 || ii >= h || jj < 0 || jj >= w) continue;
                acc += int32_t{w_q[fi * ck + (ci * k + ki) * k + kj]} *
                       int32_t{xq[((i * c + ci) * h + ii) * w + jj]};
              }
            }
          }
          ref[((i * f + fi) * oh + oi) * ow + oj] =
              w_scales[fi] * act_scale * static_cast<float>(acc);
        }
      }
    }
  }

  const ts::Tensor xt = ts::Tensor::FromVector({n, c, h, w}, x);
  const ts::Tensor no_bias;
  for (const Device dev : {Device::kSerial, Device::kParallel}) {
    DeviceGuard guard(dev);
    const ts::Tensor got = ts::Conv2dForwardInt8(
        xt, packed, act_scale, no_bias, ts::ConvSpec{stride, pad});
    const std::vector<float> out(got.data(), got.data() + got.numel());
    BitwiseEqual(ref, out,
                 dev == Device::kSerial ? "conv int8 serial"
                                        : "conv int8 parallel",
                 n * f, ck, oh * ow);
  }
}

}  // namespace

int main() {
  SetDefaultDevice(Device::kParallel);

  // Sizes past kParallelMinWork so the pool actually runs, with ragged
  // edges straddling the MC/NC macro-tile boundaries. Repeats re-use
  // the thread-local pack workspaces across pool wakeups.
  struct Shape {
    int64_t m, k, n;
  };
  const Shape shapes[] = {
      {192, 128, 512},  // one M split, one N tile
      {97, 300, 1030},  // ragged edges in every dimension
      {1, 4096, 640},   // single-row: N-only parallelism (the serve shape)
      {64, 9000, 96},   // K past kKCInt8: multi-block i32 accumulation
  };
  uint64_t seed = 1234;
  for (int iter = 0; iter < 4; ++iter) {
    for (const Shape& s : shapes) {
      CheckInt8Once(s.m, s.k, s.n, seed++);
    }
  }

  // Serving with several engines in one process: client threads issue
  // int8 GEMMs against one shared read-only prepacked weight
  // blob while the pool-parallel path runs on the main thread. The
  // packed panels are written once here and only ever read afterwards;
  // TSan confirms no write leaks into the shared phase.
  {
    const int64_t m = 16, k = 1024, n = 256;
    std::vector<float> b(k * n);
    FillUniform(b, 77);
    const float b_scale = ts::SymmetricScale(ts::AbsMax(b.data(), k * n));
    std::vector<int8_t> b_q(k * n);
    ts::QuantizeInt8(b.data(), k * n, b_scale, b_q.data());
    std::vector<int8_t> packed_int8(ts::Int8PackedBSize(k, n));
    ts::PackInt8B(b_q.data(), k, n, packed_int8.data());

    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        DeviceGuard serial(Device::kSerial);  // each client computes serially
        std::vector<float> a(m * k);
        FillUniform(a, 1000 + t);
        const float a_scale = ts::SymmetricScale(ts::AbsMax(a.data(), m * k));
        std::vector<int8_t> a_q(m * k);
        ts::QuantizeInt8(a.data(), m * k, a_scale, a_q.data());
        ts::Int8GemmOptions opts;
        opts.a_scales = &a_scale;
        opts.b_scales = &b_scale;
        std::vector<float> c(m * n);
        for (int i = 0; i < 8; ++i) {
          ts::GemmInt8(a_q.data(), ts::Int8PackedB{packed_int8.data()},
                       c.data(), m, k, n, opts);
        }
      });
    }
    // Pool-parallel traffic concurrent with the serial clients.
    for (int i = 0; i < 8; ++i) {
      CheckInt8Once(192, 512, 512, seed++);
    }
    for (auto& c : clients) c.join();
  }

  // Direct int8 conv: ragged widths (partial 16- and 32-column tiles),
  // padded edges, a channel count off the 4-channel groups, a filter
  // count off the 8-filter tiles, stride 2 and a 1x1 conv.
  struct ConvShape {
    int64_t n, c, f, h, w, k, stride, pad;
  };
  const ConvShape conv_shapes[] = {
      {3, 13, 8, 17, 37, 3, 1, 1},
      {4, 5, 11, 9, 15, 3, 1, 1},
      {2, 8, 16, 12, 33, 3, 1, 0},
      {3, 6, 10, 11, 13, 3, 2, 1},
      {2, 7, 9, 10, 19, 1, 1, 0},
  };
  for (int iter = 0; iter < 2; ++iter) {
    for (const ConvShape& s : conv_shapes) {
      CheckConvInt8Once(s.n, s.c, s.f, s.h, s.w, s.k, s.stride, s.pad,
                        seed++);
    }
  }

  // Serving replicas share one packed conv weight set read-only: client
  // threads run batch-1 convs on it while pool-parallel batches run on
  // the main thread.
  {
    const int64_t c = 13, f = 8, hw = 20;
    std::vector<float> wf(f * c * 9);
    FillUniform(wf, 91);
    std::vector<int8_t> w_q(wf.size());
    std::vector<float> w_scales(f);
    ts::QuantizeRowsInt8(wf.data(), f, c * 9, w_q.data(), w_scales.data());
    const ts::Int8ConvWeights packed =
        ts::PackInt8ConvWeights(w_q.data(), w_scales.data(), f, c, 3, 3);
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&, t] {
        std::vector<float> x(c * hw * hw);
        FillUniform(x, 2000 + t);
        const ts::Tensor xt = ts::Tensor::FromVector({1, c, hw, hw}, x);
        const ts::Tensor no_bias;
        const ts::Tensor first =
            ts::Conv2dForwardInt8(xt, packed, 0.0f, no_bias, {1, 1});
        for (int i = 0; i < 6; ++i) {
          const ts::Tensor again =
              ts::Conv2dForwardInt8(xt, packed, 0.0f, no_bias, {1, 1});
          if (std::memcmp(first.data(), again.data(),
                          sizeof(float) * first.numel()) != 0) {
            std::fprintf(stderr, "FAIL shared conv weights: rerun differs\n");
            ++failures;
          }
        }
      });
    }
    for (int i = 0; i < 4; ++i) {
      CheckConvInt8Once(3, 13, 8, 20, 20, 3, 1, 1, seed++);
    }
    for (auto& cl : clients) cl.join();
  }

  if (failures == 0) {
    std::printf("gemm_lp_tsan_test: OK\n");
    return 0;
  }
  std::fprintf(stderr, "gemm_lp_tsan_test: %d failure(s)\n", failures);
  return 1;
}
