// Correctness of the blocked, packed GEMM kernel against the reference
// triple loop: randomized shapes (including degenerate k=1/m=1/n=1 and
// non-multiples of the register tile), transposed operands, beta
// accumulation, and serial/parallel device dispatch.

#include "tensor/gemm.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"

namespace geotorch::tensor {
namespace {

using ::geotorch::Rng;
using ::geotorch::tensor::gemm_internal::kMR;
using ::geotorch::tensor::gemm_internal::kNR;

void FillRandom(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
}

// Runs Gemm and ReferenceGemm on identical inputs and compares. The
// tolerance scales with sqrt(k): the blocked kernel reassociates the
// reduction (and may contract to FMA), so results are close but not
// bitwise equal to the naive loop.
void ExpectMatchesReference(int64_t m, int64_t k, int64_t n, float beta,
                            bool trans_a, bool trans_b, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<float> c_blocked(m * n);
  FillRandom(c_blocked, rng);
  std::vector<float> c_ref = c_blocked;

  const GemmOptions opts{beta, trans_a, trans_b};
  Gemm(a.data(), b.data(), c_blocked.data(), m, k, n, opts);
  ReferenceGemm(a.data(), b.data(), c_ref.data(), m, k, n, opts);

  const double tol = 1e-4 * std::sqrt(static_cast<double>(k) + 1.0);
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_NEAR(c_blocked[i], c_ref[i], tol)
        << "i=" << i << " m=" << m << " k=" << k << " n=" << n
        << " beta=" << beta << " ta=" << trans_a << " tb=" << trans_b;
  }
}

TEST(GemmTest, RandomizedShapesAgainstReference) {
  // Mix of tile multiples, off-by-one sizes, and degenerate dims. Large
  // enough shapes cross the blocked-path cutoff.
  const int64_t dims[] = {1, 2, 3, kMR, kMR + 1, kNR, kNR + 1, 31, 64, 97};
  uint64_t seed = 1;
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        ExpectMatchesReference(m, k, n, 0.0f, false, false, seed++);
      }
    }
  }
}

TEST(GemmTest, DegenerateDimsOnBlockedPath) {
  // Force m*n*k past the small-size cutoff with one degenerate dim so
  // the packed kernel (not the reference fallback) handles k=1 / m=1 /
  // n=1.
  ExpectMatchesReference(256, 1, 256, 0.0f, false, false, 101);
  ExpectMatchesReference(1, 300, 200, 0.0f, false, false, 102);
  ExpectMatchesReference(200, 300, 1, 0.0f, false, false, 103);
}

TEST(GemmTest, BetaAccumulate) {
  for (float beta : {0.0f, 1.0f, 0.5f}) {
    ExpectMatchesReference(67, 130, 75, beta, false, false, 200);
    ExpectMatchesReference(128, 128, 128, beta, false, false, 201);
  }
}

TEST(GemmTest, TransposedOperands) {
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      ExpectMatchesReference(66, 129, 80, 0.0f, ta, tb, 300);
      ExpectMatchesReference(97, 55, 97, 1.0f, ta, tb, 301);
    }
  }
}

TEST(GemmTest, MultipleKBlocks) {
  // k spans several KC blocks, exercising the first-block beta handling
  // and the accumulate path across K panels.
  ExpectMatchesReference(64, 3 * gemm_internal::kKC + 17, 64, 0.5f, false,
                         false, 400);
}

TEST(GemmTest, SerialAndParallelDevicesAgreeExactly) {
  Rng rng(7);
  const int64_t m = 192;
  const int64_t k = 160;
  const int64_t n = 1030;  // several NC tiles plus an edge
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<float> c_serial(m * n, 0.0f);
  std::vector<float> c_parallel(m * n, 0.0f);
  {
    DeviceGuard guard(Device::kSerial);
    Gemm(a.data(), b.data(), c_serial.data(), m, k, n);
  }
  {
    DeviceGuard guard(Device::kParallel);
    Gemm(a.data(), b.data(), c_parallel.data(), m, k, n);
  }
  // The K-accumulation order is device-independent, so the parallel
  // tiling must reproduce the serial result bit for bit.
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_serial[i], c_parallel[i]) << "i=" << i;
  }
}

TEST(GemmTest, ZeroKScalesC) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(nullptr, nullptr, c.data(), 2, 0, 2, {.beta = 0.5f});
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  Gemm(nullptr, nullptr, c.data(), 2, 0, 2, {.beta = 0.0f});
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace geotorch::tensor
