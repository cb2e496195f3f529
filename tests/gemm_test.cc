// Correctness of the blocked, packed GEMM kernel against the reference
// triple loop: randomized shapes (including degenerate k=1/m=1/n=1 and
// non-multiples of the register tile), transposed operands, beta
// accumulation, and serial/parallel device dispatch.

#include "tensor/gemm.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/thread_pool.h"

namespace geotorch::tensor {
namespace {

using ::geotorch::Rng;
// The compiled register tile: shapes one past it reach the edge tiles.
const int64_t kMR = GemmKernelInfo().rows;
const int64_t kNR = GemmKernelInfo().cols;

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
  ExpectMatchesReference(64, 3 * GemmKernelInfo().k_block + 17, 64, 0.5f,
                         false, false, 400);
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


// FNV-1a over the bits of every output, in order: one changed ulp
// anywhere changes the hash.
class BitHash {
 public:
  void Add(const float* v, int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      uint32_t bits;
      std::memcpy(&bits, v + i, sizeof(bits));
      for (int byte = 0; byte < 4; ++byte) {
        h_ ^= (bits >> (8 * byte)) & 0xffu;
        h_ *= 0x100000001b3ull;
      }
    }
  }
  void Add(const std::vector<float>& v) {
    Add(v.data(), static_cast<int64_t>(v.size()));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::vector<float> RandomVec(int64_t count, Rng& rng) {
  std::vector<float> v(count);
  FillRandom(v, rng);
  return v;
}

// Sizes on both sides of every register tile (6 and 8 rows, 4, 8 and 16
// lanes) and of a 16-column row.
constexpr int64_t kTailDims[] = {1, 2, 5, 7, 8, 9, 16, 17};
constexpr int64_t kTailWidths[] = {7, 16, 17, 33};
constexpr int64_t kMinWork = gemm_internal::kBlockedMinWork;

// One 3x3, pad-1 image per (filters, channels, width) with enough rows
// that m·K·N reaches the blocked work size, so Gemm and the conv
// routing would hand the same problem to these kernels.
ConvImageView<float> TailConvView(int64_t m, int64_t c, int64_t ow) {
  ConvImageView<float> v;
  v.c = c;
  v.kh = v.kw = 3;
  v.pad = 1;
  v.w = v.ow = ow;
  const int64_t per_row = m * v.K() * ow;
  v.h = v.oh = std::max<int64_t>(3, (kMinWork + per_row - 1) / per_row);
  return v;
}

// The bits of the blocked and direct f32 kernels and of GemmInt8, for
// fixed inputs. Each output element is a fixed chain of roundings (the
// contract in gemm.cc), so a kernel change that re-tiles, widens lanes or
// reorders loops must leave every hash as it is. One hash per arithmetic:
// a build whose kernels contract a·b + c to one FMA rounding gets other
// bits than one that rounds the product first.
TEST(GemmTest, KernelOutputsArePinned) {
  struct Pin {
    const char* kernel;
    uint64_t fma;
    uint64_t no_fma;
  };
  const Pin pins[] = {
      {"Gemm", 0xb6277d35a5187d5dull, 0x5377fadd05e009bdull},
      {"GemmConv.direct", 0xa6311dd734bfb95dull, 0x34022c106be79dcaull},
      {"GemmConv.gather", 0xc2f636f0e9542c01ull, 0x6b63ac324e0dfec3ull},
      {"ConvBackwardWeight", 0xe0940d740ce76869ull, 0x9a594d80c9831f00ull},
      {"ConvBackwardInput", 0x1eae6de8a4a24021ull, 0x4c53da86cb7bd127ull},
      {"GemmInt8", 0x95b82f31d38c3778ull, 0x5016e605b9d4da53ull},
  };
  const bool fma = GemmKernelInfo().fma;
  std::vector<uint64_t> got;
  Rng rng(2024);

  {  // Blocked Gemm: row and column tails, K past one block, transposed
     // operands, beta and both fused bias kinds.
    BitHash h;
    for (int64_t m : kTailDims) {
      for (int64_t n : kTailWidths) {
        const int64_t k = std::max<int64_t>(300, kMinWork / (m * n) + 1);
        const auto a = RandomVec(m * k, rng);
        const auto b = RandomVec(k * n, rng);
        std::vector<float> c(m * n);
        Gemm(a.data(), b.data(), c.data(), m, k, n);
        h.Add(c);
      }
    }
    const std::vector<float> row_bias = RandomVec(97, rng);
    const std::vector<float> col_bias = RandomVec(600, rng);
    const GemmEpilogue relu_row{row_bias.data(), nullptr, EpilogueAct::kRelu};
    const GemmEpilogue sigmoid_col{nullptr, col_bias.data(),
                                   EpilogueAct::kSigmoid};
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (float beta : {0.0f, 1.0f, 0.5f}) {
          const int64_t m = 97, k = 291, n = 600;
          const auto a = RandomVec(m * k, rng);
          const auto b = RandomVec(k * n, rng);
          auto c = RandomVec(m * n, rng);
          const GemmEpilogue* ep =
              beta == 0.0f ? &relu_row : beta == 1.0f ? &sigmoid_col : nullptr;
          Gemm(a.data(), b.data(), c.data(), m, k, n, {beta, ta, tb, ep});
          h.Add(c);
        }
      }
    }
    got.push_back(h.value());
  }

  {  // GemmConv, stride 1 (the direct kernel): filter, channel and
     // output-column tails, a K past one block, beta and a fused epilogue.
    BitHash h;
    for (int64_t m : kTailDims) {
      for (int64_t c : kTailDims) {
        for (int64_t ow : kTailWidths) {
          ConvImageView<float> v = TailConvView(m, c, ow);
          const auto x = RandomVec(c * v.h * v.w, rng);
          v.x = x.data();
          const auto w = RandomVec(m * v.K(), rng);
          std::vector<float> out(m * v.N());
          GemmConv(w.data(), v, out.data(), m);
          h.Add(out);
        }
      }
    }
    const std::vector<float> bias = RandomVec(16, rng);
    const GemmEpilogue ep{bias.data(), nullptr, EpilogueAct::kLeakyRelu};
    for (int64_t m : {2, 16}) {
      for (float beta : {0.0f, 1.0f, 0.5f}) {
        ConvImageView<float> v;
        const auto x = RandomVec(32 * 9 * 17, rng);
        v.x = x.data();
        v.c = 32;  // K = 288: two K blocks
        v.h = v.oh = 9;
        v.w = v.ow = 17;
        v.kh = v.kw = 3;
        v.pad = 1;
        const auto w = RandomVec(m * v.K(), rng);
        auto out = RandomVec(m * v.N(), rng);
        GemmConv(w.data(), v, out.data(), m,
                 {.beta = beta, .epilogue = beta == 0.0f ? &ep : nullptr});
        h.Add(out);
      }
    }
    got.push_back(h.value());
  }

  {  // GemmConv, stride 2 (the gather-packed blocked GEMM).
    BitHash h;
    for (int64_t m : {2, 9, 16}) {
      for (int64_t c : {2, 16, 32}) {
        ConvImageView<float> v;
        const auto x = RandomVec(c * 33 * 33, rng);
        v.x = x.data();
        v.c = c;
        v.h = v.w = 33;
        v.kh = v.kw = 3;
        v.stride = 2;
        v.pad = 1;
        v.oh = v.ow = 17;
        const auto w = RandomVec(m * v.K(), rng);
        std::vector<float> out(m * v.N());
        GemmConv(w.data(), v, out.data(), m);
        h.Add(out);
      }
    }
    got.push_back(h.value());
  }

  {  // ConvBackwardWeight: accumulates into a nonzero gradient; with
     // 17+ rows of 16+ columns the positions pass one K block.
    BitHash h;
    for (int64_t m : kTailDims) {
      for (int64_t c : kTailDims) {
        for (int64_t ow : kTailWidths) {
          ConvImageView<float> v = TailConvView(m, c, ow);
          const auto x = RandomVec(c * v.h * v.w, rng);
          v.x = x.data();
          const auto g = RandomVec(m * v.N(), rng);
          auto gw = RandomVec(m * v.K(), rng);
          ConvBackwardWeight(g.data(), v, gw.data(), m);
          h.Add(gw);
        }
      }
    }
    got.push_back(h.value());
  }

  {  // ConvBackwardInput, plus filters past one K block.
    BitHash h;
    const auto run = [&](int64_t m, const ConvImageView<float>& v) {
      const auto w = RandomVec(m * v.K(), rng);
      const auto g = RandomVec(m * v.N(), rng);
      std::vector<float> packed(ConvBackwardInputWSize(v, m));
      PackConvBackwardInputW(w.data(), v, m, packed.data());
      std::vector<float> gx(v.c * v.h * v.w);
      ConvBackwardInput(packed.data(), g.data(), v, gx.data(), m);
      h.Add(gx);
    };
    for (int64_t m : kTailDims) {
      for (int64_t c : kTailDims) {
        for (int64_t ow : kTailWidths) {
          run(m, TailConvView(m, c, ow));
        }
      }
    }
    run(300, TailConvView(300, 5, 16));
    got.push_back(h.value());
  }

  {  // GemmInt8: per-row and per-column scales, beta, a K past kKCInt8.
    BitHash h;
    const auto run = [&](int64_t m, int64_t k, int64_t n, float beta) {
      std::vector<int8_t> a(m * k), b(k * n);
      for (auto& q : a) q = static_cast<int8_t>(rng.UniformInt(-127, 127));
      for (auto& q : b) q = static_cast<int8_t>(rng.UniformInt(-127, 127));
      std::vector<float> sa(m), sb(n);
      for (auto& s : sa) s = static_cast<float>(rng.Uniform(0.001, 0.01));
      for (auto& s : sb) s = static_cast<float>(rng.Uniform(0.001, 0.01));
      auto c = RandomVec(m * n, rng);
      Int8GemmOptions opts;
      opts.a_scales = sa.data();
      opts.a_scales_len = m;
      opts.b_scales = sb.data();
      opts.b_scales_len = n;
      opts.beta = beta;
      GemmInt8(a.data(), b.data(), c.data(), m, k, n, opts);
      h.Add(c);
    };
    for (int64_t m : kTailDims) {
      for (int64_t n : kTailWidths) run(m, 300, n, m % 2 == 0 ? 0.0f : 1.0f);
    }
    run(17, 9000, 33, 0.0f);
    got.push_back(h.value());
  }

  ASSERT_EQ(got.size(), std::size(pins));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], fma ? pins[i].fma : pins[i].no_fma)
        << pins[i].kernel << (fma ? " (fma)" : " (no fma)") << ": got 0x"
        << std::hex << got[i];
  }
}

}  // namespace
}  // namespace geotorch::tensor
