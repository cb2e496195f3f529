// Thread-safety harness for the parallel GEMM path; the `tsan` preset
// runs it under ThreadSanitizer. Not a gtest: it hammers the 2-D tile
// dispatch so the sanitizer can observe every cross-thread access
// pattern — concurrent packing into per-thread workspaces, disjoint
// C-tile stores, and pool wakeup/join synchronization.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/gemm.h"

namespace ts = geotorch::tensor;
using ::geotorch::Device;
using ::geotorch::SetDefaultDevice;

namespace {

int failures = 0;

void CheckGemmOnce(int64_t m, int64_t k, int64_t n, float beta, bool trans_a,
                   bool trans_b, uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  for (auto& x : a) x = dist(engine);
  for (auto& x : b) x = dist(engine);
  std::vector<float> c(m * n);
  for (auto& x : c) x = dist(engine);
  std::vector<float> c_ref = c;

  const ts::GemmOptions opts{beta, trans_a, trans_b};
  ts::Gemm(a.data(), b.data(), c.data(), m, k, n, opts);
  ts::ReferenceGemm(a.data(), b.data(), c_ref.data(), m, k, n, opts);

  const double tol = 1e-4 * std::sqrt(static_cast<double>(k) + 1.0);
  for (int64_t i = 0; i < m * n; ++i) {
    if (std::abs(static_cast<double>(c[i]) - c_ref[i]) > tol) {
      std::fprintf(stderr,
                   "FAIL m=%lld k=%lld n=%lld beta=%g ta=%d tb=%d i=%lld "
                   "got=%g want=%g\n",
                   static_cast<long long>(m), static_cast<long long>(k),
                   static_cast<long long>(n), beta, trans_a, trans_b,
                   static_cast<long long>(i), c[i], c_ref[i]);
      ++failures;
      return;  // one report per shape is enough
    }
  }
}

}  // namespace

int main() {
  SetDefaultDevice(Device::kParallel);

  // Sizes chosen to exceed kParallelMinWork so the pool actually runs,
  // with edges that straddle MC/NC macro-tile boundaries. Repeated
  // iterations re-use the thread-local workspaces, which is exactly the
  // lifetime TSan needs to see across pool wakeups.
  struct Shape {
    int64_t m, k, n;
  };
  const Shape shapes[] = {
      {192, 128, 512},  // one M split, one N tile
      {97, 300, 1030},  // ragged edges in every dimension
      {256, 64, 256},   // square-ish, multiple tiles both ways
      {1, 4096, 640},   // single-row: N-only parallelism
  };
  uint64_t seed = 42;
  for (int iter = 0; iter < 8; ++iter) {
    for (const Shape& s : shapes) {
      CheckGemmOnce(s.m, s.k, s.n, 0.0f, false, false, seed++);
      CheckGemmOnce(s.m, s.k, s.n, 1.0f, false, false, seed++);
    }
  }
  // Transposed-operand packing reads A/B with strided access; make sure
  // that path is also raced through the pool.
  for (int iter = 0; iter < 4; ++iter) {
    CheckGemmOnce(192, 160, 512, 0.5f, true, false, seed++);
    CheckGemmOnce(192, 160, 512, 0.5f, false, true, seed++);
    CheckGemmOnce(192, 160, 512, 0.5f, true, true, seed++);
  }

  if (failures != 0) {
    std::fprintf(stderr, "gemm_tsan_test: %d shape(s) mismatched\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("gemm_tsan_test: OK\n");
  return EXIT_SUCCESS;
}
