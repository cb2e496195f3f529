// Thread-safety harness for the int8 GEMM kernel; the `tsan` preset
// runs it under ThreadSanitizer, and with the portable (non-native)
// micro-kernels. Not a gtest: it drives the int8 path through the same
// 2-D tile dispatch as the f32 kernel — concurrent int8 panel packing
// into per-thread workspaces, disjoint C-tile stores, and the
// prepacked-B read-only sharing that serving relies on. Exact i32 accumulation promises serial == parallel
// bitwise, so every check here is a memcmp, not a tolerance.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "tensor/device.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"

namespace ts = geotorch::tensor;

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
  ts::Int8GemmOptions serial_opts = opts;
  serial_opts.allow_parallel = false;
  ts::GemmInt8(a_q.data(), b_q.data(), c_serial.data(), m, k, n, serial_opts);

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

}  // namespace

int main() {
  ts::SetDefaultDevice(ts::Device::kParallel);

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
        std::vector<float> a(m * k);
        FillUniform(a, 1000 + t);
        const float a_scale = ts::SymmetricScale(ts::AbsMax(a.data(), m * k));
        std::vector<int8_t> a_q(m * k);
        ts::QuantizeInt8(a.data(), m * k, a_scale, a_q.data());
        ts::Int8GemmOptions opts;
        opts.a_scales = &a_scale;
        opts.b_scales = &b_scale;
        opts.allow_parallel = false;  // each client computes serially
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

  if (failures == 0) {
    std::printf("gemm_lp_tsan_test: OK\n");
    return 0;
  }
  std::fprintf(stderr, "gemm_lp_tsan_test: %d failure(s)\n", failures);
  return 1;
}
