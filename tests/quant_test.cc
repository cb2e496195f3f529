// Numerics of the int8 inference path (DESIGN.md §10): the
// quantization helpers and their error bound, the int8 GEMM kernel
// against an int32 reference, the pre-packed
// weight-operand path (bitwise identical to on-the-fly packing), and
// the eval-only gate on Linear (training / grad-enabled forwards stay
// f32 regardless of the precision setting).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "nn/layers.h"
#include "nn/precision.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "tests/gemm_chunks.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace nn = ::geotorch::nn;
namespace ts = ::geotorch::tensor;
using ::geotorch::Device;
using ::geotorch::DeviceGuard;

std::vector<float> RandomVec(int64_t n, uint64_t seed, float lo = -2.0f,
                             float hi = 2.0f) {
  geotorch::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

// --- int8 quantization error bound -----------------------------------------

TEST(QuantTest, Int8DequantErrorAtMostHalfScalePerElement) {
  const std::vector<float> xs = RandomVec(4096, 23, -3.0f, 3.0f);
  const float scale = ts::SymmetricScale(ts::AbsMax(xs.data(), xs.size()));
  std::vector<int8_t> q(xs.size());
  ts::QuantizeInt8(xs.data(), xs.size(), scale, q.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
    EXPECT_LE(std::fabs(xs[i] - q[i] * scale), scale / 2 + 1e-7f)
        << "element " << i;
  }
}

TEST(QuantTest, PerChannelScalesBoundEveryChannel) {
  const int64_t rows = 37, cols = 19;
  const std::vector<float> w = RandomVec(rows * cols, 31, -5.0f, 5.0f);
  std::vector<int8_t> q(rows * cols);
  std::vector<float> row_scales(rows), col_scales(cols);
  ts::QuantizeRowsInt8(w.data(), rows, cols, q.data(), row_scales.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_LE(std::fabs(w[r * cols + c] - q[r * cols + c] * row_scales[r]),
                row_scales[r] / 2 + 1e-7f);
    }
  }
  ts::QuantizeColsInt8(w.data(), rows, cols, q.data(), col_scales.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_LE(std::fabs(w[r * cols + c] - q[r * cols + c] * col_scales[c]),
                col_scales[c] / 2 + 1e-7f);
    }
  }
  // An all-zero channel must not divide by zero.
  std::vector<float> zeros(8, 0.0f);
  float s;
  std::vector<int8_t> qz(8);
  ts::QuantizeRowsInt8(zeros.data(), 1, 8, qz.data(), &s);
  EXPECT_EQ(s, 1.0f);
  for (int8_t v : qz) EXPECT_EQ(v, 0);
}

// --- vector quantizers against the scalar formula --------------------------

// The formulas of quant.h in scalar form. AbsMax and QuantizeInt8 run
// 16-lane bodies on AVX-512 hosts and must match these bitwise on every
// input, including the ones lrintf maps to LONG_MIN on x86-64 (NaN,
// ±inf, |v| >= 2^63), which the clamp turns into -127.
float ScalarAbsMax(const float* x, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

int8_t ScalarQuantize(float x, float scale) {
  const long q = std::lrintf(x * (1.0f / scale));
  return static_cast<int8_t>(std::clamp<long>(q, -127, 127));
}

uint32_t BitsOfFloat(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

const float kSpecials[] = {0.0f,     -0.0f,   INFINITY, -INFINITY,
                           NAN,      -NAN,    1e30f,    -1e30f,
                           3e18f,    -3e18f,  0.5f,     -0.5f,
                           1.5f,     2.5f,    -2.5f,    126.5f,
                           127.5f,   -127.5f, 128.0f,   -128.0f,
                           2.25f,    -0.25f};

// Every special value at every position of every length 0..67 (the
// 16-lane body, its 2x unroll and the scalar tail), at scales 1 and 0.5
// where .5 and .25 are exact ties, and at a data-derived scale.
TEST(QuantTest, VectorQuantizersMatchScalarFormula) {
  for (int64_t len = 0; len <= 67; ++len) {
    const std::vector<float> base = RandomVec(len, 100 + len, -200.0f, 200.0f);
    const float data_scale =
        ts::SymmetricScale(ScalarAbsMax(base.data(), len));
    std::vector<int8_t> q(len);
    for (const float special : kSpecials) {
      for (int64_t pos = 0; pos < std::max<int64_t>(len, 1); ++pos) {
        std::vector<float> x = base;
        if (len > 0) x[pos] = special;
        SCOPED_TRACE("len=" + std::to_string(len) + " pos=" +
                     std::to_string(pos) + " special=" +
                     std::to_string(special));
        const float absmax = ts::AbsMax(x.data(), len);
        ASSERT_EQ(BitsOfFloat(ScalarAbsMax(x.data(), len)),
                  BitsOfFloat(absmax));
        for (const float scale : {1.0f, 0.5f, data_scale}) {
          ts::QuantizeInt8(x.data(), len, scale, q.data());
          for (int64_t i = 0; i < len; ++i) {
            ASSERT_EQ(int(ScalarQuantize(x[i], scale)), int(q[i]))
                << "i=" << i << " x=" << x[i] << " scale=" << scale;
          }
        }
      }
    }
  }
}

// Per-row scales and values of QuantizeRowsInt8 on rows whose length is
// not a multiple of 16, with special values in some rows.
TEST(QuantTest, QuantizeRowsInt8MatchesPerRowFormula) {
  const int64_t rows = 6;
  for (const int64_t cols : {1, 7, 15, 17, 31, 33, 50, 67}) {
    std::vector<float> w = RandomVec(rows * cols, 7 * cols, -3.0f, 3.0f);
    w[1 * cols + cols / 2] = NAN;
    w[2 * cols] = -INFINITY;
    w[3 * cols + cols - 1] = 2.5f;
    std::fill(w.begin() + 4 * cols, w.begin() + 5 * cols, 0.0f);
    std::vector<int8_t> q(rows * cols);
    std::vector<float> scales(rows);
    ts::QuantizeRowsInt8(w.data(), rows, cols, q.data(), scales.data());
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = w.data() + r * cols;
      const float want = ts::SymmetricScale(ScalarAbsMax(row, cols));
      ASSERT_EQ(BitsOfFloat(want), BitsOfFloat(scales[r]))
          << "cols=" << cols << " row=" << r;
      for (int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(int(ScalarQuantize(row[c], want)), int(q[r * cols + c]))
            << "cols=" << cols << " row=" << r << " col=" << c;
      }
    }
  }
}

// --- GEMM kernels against references ---------------------------------------

TEST(QuantTest, GemmInt8MatchesInt32Reference) {
  for (auto [m, k, n] : {std::array<int64_t, 3>{7, 13, 9},
                         std::array<int64_t, 3>{16, 262, 33},
                         std::array<int64_t, 3>{61, 130, 70}}) {
    const std::vector<float> af = RandomVec(m * k, m + 3 * k);
    const std::vector<float> bf = RandomVec(k * n, n + 5 * k);
    std::vector<int8_t> a(m * k), b(k * n);
    std::vector<float> b_scales(n);
    const float a_scale = ts::SymmetricScale(ts::AbsMax(af.data(), m * k));
    ts::QuantizeInt8(af.data(), m * k, a_scale, a.data());
    ts::QuantizeColsInt8(bf.data(), k, n, b.data(), b_scales.data());
    ts::Int8GemmOptions opts;
    opts.a_scales = &a_scale;
    opts.a_scales_len = 1;
    opts.b_scales = b_scales.data();
    opts.b_scales_len = n;
    std::vector<float> got(m * n);
    ts::GemmInt8(a.data(), b.data(), got.data(), m, k, n, opts);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        int32_t acc = 0;
        for (int64_t p = 0; p < k; ++p) {
          acc += static_cast<int32_t>(a[i * k + p]) *
                 static_cast<int32_t>(b[p * n + j]);
        }
        const float want =
            static_cast<float>(acc) * (a_scale * b_scales[j]);
        EXPECT_NEAR(got[i * n + j], want,
                    1e-5f * std::max(1.0f, std::fabs(want)))
            << m << "x" << k << "x" << n;
      }
    }
  }
}

// --- pre-packed weight operand ---------------------------------------------

// Packing B once at SetPrecision time must change nothing numerically:
// the packed blob holds exactly the panels the kernel would have built
// per call, so outputs are bitwise identical, including odd tails.
TEST(QuantTest, PrepackedInt8BitwiseEqualsOnTheFly) {
  for (auto [m, k, n] : {std::array<int64_t, 3>{7, 13, 9},
                         std::array<int64_t, 3>{16, 262, 512},
                         std::array<int64_t, 3>{61, 530, 700}}) {
    const std::vector<float> af = RandomVec(m * k, k + 29);
    const std::vector<float> bf = RandomVec(k * n, n + 37);
    std::vector<int8_t> a(m * k), b(k * n);
    std::vector<float> b_scales(n);
    const float a_scale = ts::SymmetricScale(ts::AbsMax(af.data(), m * k));
    ts::QuantizeInt8(af.data(), m * k, a_scale, a.data());
    ts::QuantizeColsInt8(bf.data(), k, n, b.data(), b_scales.data());
    ts::Int8GemmOptions opts;
    opts.a_scales = &a_scale;
    opts.a_scales_len = 1;
    opts.b_scales = b_scales.data();
    opts.b_scales_len = n;
    std::vector<float> unpacked(m * n), packed_out(m * n);
    ts::GemmInt8(a.data(), b.data(), unpacked.data(), m, k, n, opts);
    std::vector<int8_t> packed(ts::Int8PackedBSize(k, n));
    ts::PackInt8B(b.data(), k, n, packed.data());
    ts::GemmInt8(a.data(), ts::Int8PackedB{packed.data()}, packed_out.data(),
                 m, k, n, opts);
    EXPECT_EQ(0, std::memcmp(unpacked.data(), packed_out.data(),
                             m * n * sizeof(float)))
        << m << "x" << k << "x" << n;
  }
}

// --- serial vs parallel ----------------------------------------------------

// The int8 kernel accumulates exactly in i32, so splitting the tile
// grid over the pool must not change a single bit.
TEST(QuantTest, LowPrecisionGemmSerialEqualsParallelBitwise) {
  const int64_t m = 128, k = 96, n = 128;  // two kMC row tiles
  {
    // The GEMM dispatcher's question: this problem must fan out, or the
    // parallel arm below is a second serial run.
    DeviceGuard guard(Device::kParallel);
    if (geotorch::ThreadPool::Global().num_threads() == 1) {
      GTEST_SKIP() << "the global pool has one worker: nothing fans out";
    }
    ASSERT_GT(geotorch::GemmChunks(m, k, n), 1);
  }
  const std::vector<float> a = RandomVec(m * k, 41);
  const std::vector<float> b = RandomVec(k * n, 43);
  std::vector<int8_t> aq(m * k), bq(k * n);
  std::vector<float> b_scales(n);
  const float a_scale = ts::SymmetricScale(ts::AbsMax(a.data(), m * k));
  ts::QuantizeInt8(a.data(), m * k, a_scale, aq.data());
  ts::QuantizeColsInt8(b.data(), k, n, bq.data(), b_scales.data());
  ts::Int8GemmOptions iopts;
  iopts.a_scales = &a_scale;
  iopts.a_scales_len = 1;
  iopts.b_scales = b_scales.data();
  iopts.b_scales_len = n;

  std::vector<float> int8_serial(m * n), int8_parallel(m * n);
  {
    DeviceGuard guard(Device::kSerial);
    ts::GemmInt8(aq.data(), bq.data(), int8_serial.data(), m, k, n, iopts);
  }
  {
    DeviceGuard guard(Device::kParallel);
    ts::GemmInt8(aq.data(), bq.data(), int8_parallel.data(), m, k, n, iopts);
  }
  EXPECT_EQ(0, std::memcmp(int8_serial.data(), int8_parallel.data(),
                           m * n * sizeof(float)));
}

// --- the eval-only gate on layers ------------------------------------------

TEST(QuantTest, LinearPrecisionOnlyAppliesInEvalWithGradsOff) {
  geotorch::Rng rng(5);
  nn::Linear layer(24, 16, rng);
  ts::Tensor x = ts::Tensor::Uninitialized({4, 24});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.flat(i) = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }

  layer.SetTraining(false);
  ts::Tensor f32_out;
  {
    ag::NoGradGuard no_grad;
    f32_out = layer.Forward(ag::Variable(x)).value();
  }

  layer.SetPrecision(nn::Precision::kInt8);
  // Grad-enabled forward: the gate keeps it f32, bitwise.
  ts::Tensor grad_on_out = layer.Forward(ag::Variable(x)).value();
  EXPECT_EQ(0, std::memcmp(f32_out.data(), grad_on_out.data(),
                           f32_out.numel() * sizeof(float)));
  // Training-mode forward: still f32, bitwise.
  layer.SetTraining(true);
  {
    ag::NoGradGuard no_grad;
    ts::Tensor training_out = layer.Forward(ag::Variable(x)).value();
    EXPECT_EQ(0, std::memcmp(f32_out.data(), training_out.data(),
                             f32_out.numel() * sizeof(float)));
  }
  // Eval + no-grad: the int8 path engages — close to f32, not equal.
  layer.SetTraining(false);
  {
    ag::NoGradGuard no_grad;
    ts::Tensor int8_out = layer.Forward(ag::Variable(x)).value();
    double max_diff = 0.0, absmax = 0.0;
    for (int64_t i = 0; i < int8_out.numel(); ++i) {
      max_diff = std::max(
          max_diff,
          static_cast<double>(std::fabs(int8_out.flat(i) - f32_out.flat(i))));
      absmax = std::max(absmax,
                        static_cast<double>(std::fabs(f32_out.flat(i))));
    }
    EXPECT_GT(max_diff, 0.0) << "int8 path did not engage";
    EXPECT_LT(max_diff, 0.05 * std::max(absmax, 1.0));
  }
  // Back to f32: bitwise identical to the original forward.
  layer.SetPrecision(nn::Precision::kF32);
  {
    ag::NoGradGuard no_grad;
    ts::Tensor back = layer.Forward(ag::Variable(x)).value();
    EXPECT_EQ(0, std::memcmp(f32_out.data(), back.data(),
                             f32_out.numel() * sizeof(float)));
  }
}

// Calibration records a static activation scale: after calibrating on
// the same input, the int8 output must match the uncalibrated
// (dynamic-scale) output, since both resolve to the same absmax.
TEST(QuantTest, CalibratedStaticScaleMatchesDynamicOnCalibrationInput) {
  geotorch::Rng rng(9);
  nn::Linear layer(16, 8, rng);
  ts::Tensor x = ts::Tensor::Uninitialized({4, 16});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.flat(i) = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  layer.SetTraining(false);
  ag::NoGradGuard no_grad;

  layer.SetPrecision(nn::Precision::kInt8);
  ts::Tensor dynamic_out = layer.Forward(ag::Variable(x)).value();

  layer.SetPrecision(nn::Precision::kF32);
  layer.SetCalibrating(true);
  layer.Forward(ag::Variable(x));
  layer.SetCalibrating(false);
  layer.SetPrecision(nn::Precision::kInt8);
  ts::Tensor static_out = layer.Forward(ag::Variable(x)).value();
  EXPECT_EQ(0, std::memcmp(dynamic_out.data(), static_out.data(),
                           dynamic_out.numel() * sizeof(float)));
}

}  // namespace
