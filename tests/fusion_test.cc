// Fused eval-path execution (DESIGN.md §13): GEMM bias+activation
// epilogues, the im2col-free direct conv kernels, the int8 conv against
// a materialized reference, BatchNorm folding into the preceding
// Conv2d, and version-keyed cache invalidation. The load-bearing
// contract: on models without BatchNorm the fused path is BITWISE
// identical to the unfused one (the epilogue replays the same
// per-element formulas in the same order), while BN folding — an
// algebraic reassociation — stays within a small relative bound of the
// unfused eval. The unfused f32 reference is the same eval-mode
// forward with gradients enabled, which runs the autograd ops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"
#include "nn/layers.h"
#include "nn/precision.h"
#include "obs/obs.h"
#include "tensor/conv.h"
#include "tensor/device.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace nn = ::geotorch::nn;
namespace ts = ::geotorch::tensor;

ts::Tensor RandomTensor(std::initializer_list<int64_t> shape, uint64_t seed,
                        float lo = -1.5f, float hi = 1.5f) {
  ts::Tensor t = ts::Tensor::Uninitialized(shape);
  geotorch::Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i)
    t.flat(i) = static_cast<float>(rng.Uniform(lo, hi));
  return t;
}

std::vector<uint32_t> BitsOf(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  std::memcpy(bits.data(), t.data(), t.numel() * sizeof(float));
  return bits;
}

double MaxRelDiff(const ts::Tensor& a, const ts::Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double worst = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double denom = std::max(1e-3, std::fabs(double(a.flat(i))));
    worst = std::max(worst, std::fabs(double(a.flat(i)) - b.flat(i)) / denom);
  }
  return worst;
}

// The unfused reference: an eval-mode forward with gradients enabled is
// not fused-eval eligible, so it runs the autograd ops training runs.
ts::Tensor UnfusedEval(nn::Sequential& seq, const ts::Tensor& x) {
  EXPECT_TRUE(ag::GradEnabled());
  EXPECT_FALSE(nn::FusedEvalEligible(seq));
  return seq.Forward(ag::Variable(x)).value();
}

ts::Tensor FusedEval(nn::Sequential& seq, const ts::Tensor& x) {
  ag::NoGradGuard no_grad;
  EXPECT_TRUE(nn::FusedEvalEligible(seq));
  return seq.Forward(ag::Variable(x)).value();
}

// --- kernel level -----------------------------------------------------------

// The conv forward (direct kernel, implicit gather, or materialize +
// epilogue depending on shape) must be bitwise identical to an
// independent reference built from the primitives: an explicit Im2Col
// patch matrix per sample, a dense GEMM, then separate bias and
// activation passes. The dense GEMM is Gemm() rather than
// ReferenceGemm(): past the small-problem threshold the kernels round
// like the blocked micro-kernel (K-blocked partial sums, FMA under
// -march=native), which the textbook loop does not reproduce bitwise.
TEST(FusionTest, ConvFusedBitwiseMatchesUnfusedF32) {
  struct Case {
    int64_t n, c, f, hw, k, stride, pad;
  };
  const Case cases[] = {
      {2, 4, 16, 28, 3, 1, 1},   // SatCNN stage 1 (direct kernel)
      {1, 32, 32, 7, 3, 1, 1},   // ck=288: two K blocks in the chain
      {2, 3, 8, 9, 3, 2, 1},     // strided: gather / materialize path
      {2, 8, 16, 14, 1, 1, 0},   // 1x1: plain GEMM on the input plane
      {1, 2, 4, 5, 3, 1, 0},     // tiny: reference fallback
      {32, 6, 16, 16, 3, 1, 1},  // ST-ResNet closeness/period input conv
      {32, 2, 16, 16, 3, 1, 1},  // ST-ResNet trend input conv
      {32, 16, 16, 16, 3, 1, 1}, // ST-ResNet residual-unit conv
      {32, 16, 2, 16, 3, 1, 1},  // ST-ResNet output conv
  };
  for (const Case& cs : cases) {
    SCOPED_TRACE("c=" + std::to_string(cs.c) + " f=" + std::to_string(cs.f) +
                 " hw=" + std::to_string(cs.hw) + " k=" + std::to_string(cs.k));
    const ts::Tensor x = RandomTensor({cs.n, cs.c, cs.hw, cs.hw}, 7 * cs.c);
    const ts::Tensor w =
        RandomTensor({cs.f, cs.c, cs.k, cs.k}, 11 * cs.f, -0.5f, 0.5f);
    const ts::Tensor bias = RandomTensor({cs.f}, 13, -0.2f, 0.2f);
    const ts::ConvSpec spec{cs.stride, cs.pad};
    const int64_t ck = cs.c * cs.k * cs.k;
    const int64_t oh = ts::ConvOutSize(cs.hw, cs.k, cs.stride, cs.pad);
    const int64_t l = oh * oh;
    ts::Tensor ref = ts::Tensor::Uninitialized({cs.n, cs.f, oh, oh});
    for (int64_t i = 0; i < cs.n; ++i) {
      const ts::Tensor cols = ts::Im2Col(x, i, cs.k, cs.k, spec);
      float* out_i = ref.data() + i * cs.f * l;
      ts::Gemm(w.data(), cols.data(), out_i, cs.f, ck, l, {.beta = 0.0f});
      for (int64_t fi = 0; fi < cs.f; ++fi)
        for (int64_t j = 0; j < l; ++j) out_i[fi * l + j] += bias.flat(fi);
    }
    for (int64_t i = 0; i < ref.numel(); ++i) {
      const float v = ref.flat(i);
      ref.flat(i) = v > 0.0f ? v : 0.0f;  // the ops.cc Relu formula
    }
    for (const ts::Device dev : {ts::Device::kSerial, ts::Device::kParallel}) {
      ts::DeviceGuard guard(dev);
      const ts::Tensor fused =
          ts::Conv2dForward(x, w, bias, spec, ts::EpilogueAct::kRelu, 0.01f);
      EXPECT_EQ(BitsOf(ref), BitsOf(fused)) << "device=" << int(dev);
    }
  }
}

// The int8 conv (per-sample quantize into the caller's buffer, implicit
// im2col gather or 1×1 bypass, i32 accumulation, dequant + bias +
// activation epilogue) must be bitwise identical to the materialized
// composition: per sample, an explicit Im2Col patch matrix quantized
// with the same per-batch scale, a GemmInt8, then separate bias and
// activation passes. Static scales (here one that clips) and dynamic
// ones (absmax of the whole batch) both go through the same code.
TEST(FusionTest, ConvInt8BitwiseMatchesMaterializedReference) {
  struct Case {
    int64_t n, c, f, hw, k, stride, pad;
  };
  const Case cases[] = {
      {1, 4, 16, 12, 3, 1, 1},   // 3x3 pad 1, batch 1
      {4, 8, 12, 10, 3, 1, 1},   // 3x3 pad 1, batch 4
      {4, 32, 16, 14, 1, 1, 0},  // 1x1: GEMM on the quantized plane
      {1, 8, 16, 9, 1, 1, 0},    // 1x1, batch 1
      {4, 3, 8, 11, 3, 2, 1},    // strided gather
      {1, 6, 10, 9, 3, 2, 0},    // strided, unpadded, batch 1
  };
  const ts::EpilogueAct acts[] = {ts::EpilogueAct::kNone,
                                  ts::EpilogueAct::kRelu,
                                  ts::EpilogueAct::kLeakyRelu};
  const float slope = 0.125f;
  for (const Case& cs : cases) {
    const ts::Tensor x = RandomTensor({cs.n, cs.c, cs.hw, cs.hw}, 5 * cs.c);
    const ts::Tensor w =
        RandomTensor({cs.f, cs.c, cs.k, cs.k}, 3 * cs.f, -0.5f, 0.5f);
    const ts::Tensor bias = RandomTensor({cs.f}, 29, -0.2f, 0.2f);
    const ts::ConvSpec spec{cs.stride, cs.pad};
    const int64_t ck = cs.c * cs.k * cs.k;
    const int64_t oh = ts::ConvOutSize(cs.hw, cs.k, cs.stride, cs.pad);
    const int64_t l = oh * oh;
    std::vector<int8_t> w_q(cs.f * ck);
    std::vector<float> w_scales(cs.f);
    ts::QuantizeRowsInt8(w.data(), cs.f, ck, w_q.data(), w_scales.data());
    // 0 selects the dynamic scale; 1/127 clips inputs beyond ±1.
    for (const float static_scale : {0.0f, 1.0f / 127.0f}) {
      const float scale =
          static_scale > 0.0f
              ? static_scale
              : ts::SymmetricScale(ts::AbsMax(x.data(), x.numel()));
      for (const ts::EpilogueAct act : acts) {
        SCOPED_TRACE("n=" + std::to_string(cs.n) + " c=" +
                     std::to_string(cs.c) + " k=" + std::to_string(cs.k) +
                     " stride=" + std::to_string(cs.stride) +
                     " scale=" + std::to_string(static_scale) +
                     " act=" + std::to_string(int(act)));
        ts::Tensor ref = ts::Tensor::Uninitialized({cs.n, cs.f, oh, oh});
        std::vector<int8_t> cols_q(ck * l);
        for (int64_t i = 0; i < cs.n; ++i) {
          const ts::Tensor cols = ts::Im2Col(x, i, cs.k, cs.k, spec);
          ts::QuantizeInt8(cols.data(), ck * l, scale, cols_q.data());
          ts::Int8GemmOptions opts;
          opts.a_scales = w_scales.data();
          opts.a_scales_len = cs.f;
          opts.b_scales = &scale;
          opts.b_scales_len = 1;
          float* out_i = ref.data() + i * cs.f * l;
          ts::GemmInt8(w_q.data(), cols_q.data(), out_i, cs.f, ck, l, opts);
          for (int64_t fi = 0; fi < cs.f; ++fi)
            for (int64_t j = 0; j < l; ++j) out_i[fi * l + j] += bias.flat(fi);
        }
        for (int64_t i = 0; i < ref.numel(); ++i) {
          const float v = ref.flat(i);
          if (act == ts::EpilogueAct::kRelu) {
            ref.flat(i) = v > 0.0f ? v : 0.0f;
          } else if (act == ts::EpilogueAct::kLeakyRelu) {
            ref.flat(i) = v > 0.0f ? v : slope * v;
          }
        }
        for (const ts::Device dev :
             {ts::Device::kSerial, ts::Device::kParallel}) {
          ts::DeviceGuard guard(dev);
          const ts::Tensor got = ts::Conv2dForwardInt8(
              x, w_q.data(), w_scales.data(), cs.f, cs.c, cs.k, cs.k,
              static_scale, bias, spec, act, slope);
          EXPECT_EQ(BitsOf(ref), BitsOf(got)) << "device=" << int(dev);
        }
      }
    }
  }
}

// Epilogue steps (row bias, col bias, activation) each run as their own
// pass over a row segment, so they match full-tensor separate passes
// bitwise — for every activation and on both the reference and blocked
// GEMM paths.
TEST(FusionTest, GemmEpilogueMatchesSeparatePasses) {
  for (const auto act : {ts::EpilogueAct::kRelu, ts::EpilogueAct::kLeakyRelu,
                         ts::EpilogueAct::kSigmoid}) {
    for (const auto [m, k, n] :
         {std::array<int64_t, 3>{5, 7, 9},        // reference path
          std::array<int64_t, 3>{64, 96, 128}}) { // blocked path
      const ts::Tensor a = RandomTensor({m, k}, 3);
      const ts::Tensor b = RandomTensor({k, n}, 5);
      const ts::Tensor row_bias = RandomTensor({m}, 17, -0.3f, 0.3f);
      const ts::Tensor col_bias = RandomTensor({n}, 19, -0.3f, 0.3f);
      ts::Tensor ref = ts::Tensor::Uninitialized({m, n});
      ts::Gemm(a.data(), b.data(), ref.data(), m, k, n, {.beta = 0.0f});
      for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) ref.flat(i * n + j) += row_bias.flat(i);
      for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) ref.flat(i * n + j) += col_bias.flat(j);
      for (int64_t i = 0; i < ref.numel(); ++i) {
        const float x = ref.flat(i);
        switch (act) {
          case ts::EpilogueAct::kRelu:
            ref.flat(i) = x > 0.0f ? x : 0.0f;
            break;
          case ts::EpilogueAct::kLeakyRelu:
            ref.flat(i) = x > 0.0f ? x : 0.125f * x;
            break;
          case ts::EpilogueAct::kSigmoid:
            ref.flat(i) = 1.0f / (1.0f + std::exp(-x));
            break;
          default:
            break;
        }
      }
      ts::GemmEpilogue ep;
      ep.row_bias = row_bias.data();
      ep.col_bias = col_bias.data();
      ep.act = act;
      ep.leaky_slope = 0.125f;
      ts::GemmOptions opts;
      opts.beta = 0.0f;
      opts.epilogue = &ep;
      ts::Tensor fused = ts::Tensor::Uninitialized({m, n});
      ts::Gemm(a.data(), b.data(), fused.data(), m, k, n, opts);
      EXPECT_EQ(BitsOf(ref), BitsOf(fused))
          << "act=" << int(act) << " m=" << m << " n=" << n;
    }
  }
}

// --- module level -----------------------------------------------------------

std::unique_ptr<nn::Sequential> MakeConvStack(bool with_bn, uint64_t seed) {
  geotorch::Rng rng(seed);
  auto seq = std::make_unique<nn::Sequential>();
  seq->Add(std::make_unique<nn::Conv2d>(3, 8, 3, rng, 1, 1));
  if (with_bn) seq->Add(std::make_unique<nn::BatchNorm2d>(8));
  seq->Add(std::make_unique<nn::ReluLayer>());
  seq->Add(std::make_unique<nn::Conv2d>(8, 8, 3, rng, 1, 1));
  seq->Add(std::make_unique<nn::LeakyReluLayer>(0.1f));
  return seq;
}

// Runs a few training forwards so BatchNorm's running stats move off
// their init values, then switches to eval.
void WarmStats(nn::Sequential& seq, const ts::Tensor& x) {
  seq.SetTraining(true);
  for (int step = 0; step < 3; ++step) {
    ag::Variable in(RandomTensor({x.size(0), 3, 10, 10}, 100 + step));
    (void)seq.Forward(in);
  }
  seq.SetTraining(false);
}

TEST(FusionTest, SequentialWithoutBnFusedIsBitwise) {
  auto seq = MakeConvStack(/*with_bn=*/false, 42);
  seq->SetTraining(false);
  const ts::Tensor x = RandomTensor({2, 3, 10, 10}, 9);
  EXPECT_EQ(BitsOf(UnfusedEval(*seq, x)), BitsOf(FusedEval(*seq, x)));
}

TEST(FusionTest, BnFoldStaysWithinRelativeBound) {
  auto seq = MakeConvStack(/*with_bn=*/true, 43);
  const ts::Tensor x = RandomTensor({2, 3, 10, 10}, 9);
  WarmStats(*seq, x);
  const ts::Tensor off = UnfusedEval(*seq, x);
  const ts::Tensor on = FusedEval(*seq, x);
  // Folding reassociates (conv ∘ affine) into one conv — not bitwise,
  // but tightly bounded.
  EXPECT_LT(MaxRelDiff(off, on), 1e-3);
}

TEST(FusionTest, EligibilityGate) {
  auto seq = MakeConvStack(/*with_bn=*/false, 44);
  seq->SetTraining(false);
  {
    ag::NoGradGuard no_grad;
    EXPECT_TRUE(nn::FusedEvalEligible(*seq));
    seq->SetCalibrating(true);
    EXPECT_FALSE(nn::FusedEvalEligible(*seq));
    seq->SetCalibrating(false);
  }
  EXPECT_FALSE(nn::FusedEvalEligible(*seq));  // grads enabled
  seq->SetTraining(true);
  ag::NoGradGuard no_grad;
  EXPECT_FALSE(nn::FusedEvalEligible(*seq));  // training mode
}

// LoadNamedParameter must land on the owning module and bump its state
// version, so the folded-weight snapshot rebuilds instead of serving
// stale weights.
TEST(FusionTest, FoldedCacheInvalidatedOnParameterLoad) {
  auto seq = MakeConvStack(/*with_bn=*/true, 45);
  const ts::Tensor x = RandomTensor({2, 3, 10, 10}, 9);
  WarmStats(*seq, x);
  const ts::Tensor y1 = FusedEval(*seq, x);  // builds cache
  const ts::Tensor neww = RandomTensor({8, 3, 3, 3}, 77, -0.4f, 0.4f);
  ASSERT_TRUE(seq->LoadNamedParameter("layer0.weight", neww).ok());
  const ts::Tensor y2 = FusedEval(*seq, x);
  EXPECT_NE(BitsOf(y1), BitsOf(y2));  // stale cache would reproduce y1
  const ts::Tensor y2_ref = UnfusedEval(*seq, x);
  EXPECT_LT(MaxRelDiff(y2_ref, y2), 1e-3);
}

// Running-stat EMA updates during training must invalidate both the BN
// eval cache and the downstream folded conv weights.
TEST(FusionTest, BnCacheInvalidatedByTrainingStats) {
  auto seq = MakeConvStack(/*with_bn=*/true, 46);
  const ts::Tensor x = RandomTensor({2, 3, 10, 10}, 9);
  WarmStats(*seq, x);
  const ts::Tensor y1 = FusedEval(*seq, x);
  WarmStats(*seq, x);  // more EMA updates -> new stats
  const ts::Tensor y2 = FusedEval(*seq, x);
  EXPECT_NE(BitsOf(y1), BitsOf(y2));
  const ts::Tensor y2_ref = UnfusedEval(*seq, x);
  EXPECT_LT(MaxRelDiff(y2_ref, y2), 1e-3);
}

// An int8 Conv2d has one code path: its Forward is ForwardFusedEval
// with no activation. So the Sequential fused walk (ReLU in the GEMM
// epilogue) must match calling the layers one by one (plain int8 conv,
// then a separate ReLU pass) bitwise.
TEST(FusionTest, Int8SequentialMatchesLayerByLayer) {
  geotorch::Rng rng(47);
  auto conv = std::make_unique<nn::Conv2d>(4, 12, 3, rng, 1, 1);
  auto relu = std::make_unique<nn::ReluLayer>();
  nn::Conv2d* conv_ptr = conv.get();
  nn::ReluLayer* relu_ptr = relu.get();
  nn::Sequential seq;
  seq.Add(std::move(conv));
  seq.Add(std::move(relu));
  seq.SetTraining(false);
  seq.SetPrecision(nn::Precision::kInt8);
  const ts::Tensor x = RandomTensor({2, 4, 12, 12}, 21);
  ag::NoGradGuard no_grad;
  const ts::Tensor fused = seq.Forward(ag::Variable(x)).value();
  const ts::Tensor by_layer =
      relu_ptr->Forward(conv_ptr->Forward(ag::Variable(x))).value();
  EXPECT_EQ(BitsOf(by_layer), BitsOf(fused));
}

// The observability counters that make the fused paths visible.
TEST(FusionTest, ObsCountersTrackFusedPaths) {
  const bool was_on = geotorch::obs::Enabled();
  geotorch::obs::SetEnabled(true);
  geotorch::obs::Reset();
  const ts::Tensor x = RandomTensor({1, 8, 16, 16}, 23);
  const ts::Tensor w1 = RandomTensor({16, 8, 1, 1}, 25, -0.5f, 0.5f);
  const ts::Tensor w3 = RandomTensor({16, 8, 3, 3}, 27, -0.5f, 0.5f);
  const ts::Tensor bias;
  (void)ts::Conv2dForward(x, w1, bias, {1, 0});
  (void)ts::Conv2dForward(x, w3, bias, {1, 1}, ts::EpilogueAct::kRelu);
  int64_t one_by_one = 0, direct = 0, calls = 0;
  for (const auto& [name, v] : geotorch::obs::CounterValues()) {
    if (name == "fusion.conv_1x1") one_by_one = v;
    if (name == "gemm.path.conv_direct") direct = v;
    if (name == "fusion.conv_calls") calls = v;
  }
  EXPECT_EQ(one_by_one, 1);
  EXPECT_GE(direct, 1);  // the 3x3 stride-1 conv takes the direct kernel
  EXPECT_EQ(calls, 2);
  geotorch::obs::Reset();
  geotorch::obs::SetEnabled(was_on);
}

}  // namespace
