#include "autograd/ops.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "tests/gradcheck.h"

namespace geotorch::autograd {
namespace {

namespace ts = ::geotorch::tensor;
using ::geotorch::testing::GradCheck;

constexpr double kTol = 2e-2;  // float32 kernels + fd eps 1e-3

TEST(VariableTest, LeafBasics) {
  Variable v(ts::Tensor::Ones({2, 2}), true);
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.numel(), 4);
}

TEST(VariableTest, BackwardThroughAdd) {
  Variable a(ts::Tensor::FromVector({2}, {1, 2}), true);
  Variable b(ts::Tensor::FromVector({2}, {3, 4}), true);
  Variable loss = SumAll(Add(a, b));
  loss.Backward();
  EXPECT_TRUE(ts::AllClose(a.grad(), ts::Tensor::Ones({2})));
  EXPECT_TRUE(ts::AllClose(b.grad(), ts::Tensor::Ones({2})));
}

TEST(VariableTest, GradAccumulatesOnReuse) {
  Variable a(ts::Tensor::Ones({2}), true);
  Variable loss = SumAll(Add(a, a));  // d/da = 2
  loss.Backward();
  EXPECT_TRUE(ts::AllClose(a.grad(), ts::Tensor::Full({2}, 2.0f)));
}

TEST(VariableTest, NoGradGuardDetaches) {
  Variable a(ts::Tensor::Ones({2}), true);
  NoGradGuard guard;
  Variable y = MulScalar(a, 3.0f);
  EXPECT_FALSE(y.requires_grad());
}

TEST(VariableTest, DiamondGraphGradient) {
  // loss = sum(a*a + a) — a reused along two paths.
  Variable a(ts::Tensor::FromVector({2}, {2, 3}), true);
  Variable loss = SumAll(Add(Mul(a, a), a));
  loss.Backward();
  EXPECT_TRUE(
      ts::AllClose(a.grad(), ts::Tensor::FromVector({2}, {5, 7})));
}

TEST(GradCheckTest, ElementwiseOps) {
  Rng rng(1);
  ts::Tensor a = ts::Tensor::Rand({2, 3}, rng, 0.5f, 2.0f);
  ts::Tensor b = ts::Tensor::Rand({2, 3}, rng, 0.5f, 2.0f);

  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Mul(v[0], v[1])); },
                      {a, b}),
            kTol);
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Div(v[0], v[1])); },
                      {a, b}),
            kTol);
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Exp(v[0])); }, {a}),
            kTol);
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Log(v[0])); }, {a}),
            kTol);
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Sqrt(v[0])); }, {a}),
            kTol);
  EXPECT_LT(
      GradCheck([](const auto& v) { return SumAll(Sigmoid(v[0])); }, {a}),
      kTol);
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Tanh(v[0])); }, {a}),
            kTol);
  EXPECT_LT(
      GradCheck([](const auto& v) { return SumAll(PowScalar(v[0], 1.7f)); },
                {a}),
      kTol);
}

TEST(GradCheckTest, BroadcastOps) {
  Rng rng(2);
  ts::Tensor a = ts::Tensor::Rand({2, 3}, rng, 0.5f, 2.0f);
  ts::Tensor row = ts::Tensor::Rand({3}, rng, 0.5f, 2.0f);
  ts::Tensor chan = ts::Tensor::Rand({1, 3, 1, 1}, rng, 0.5f, 2.0f);
  ts::Tensor x = ts::Tensor::Rand({2, 3, 2, 2}, rng, 0.5f, 2.0f);

  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Add(v[0], v[1])); },
                      {a, row}),
            kTol);
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Mul(v[0], v[1])); },
                      {a, row}),
            kTol);
  // The batch-norm pattern.
  EXPECT_LT(GradCheck([](const auto& v) { return SumAll(Mul(v[0], v[1])); },
                      {x, chan}),
            kTol);
}

TEST(GradCheckTest, MatMul) {
  Rng rng(3);
  ts::Tensor a = ts::Tensor::Randn({3, 4}, rng);
  ts::Tensor b = ts::Tensor::Randn({4, 2}, rng);
  EXPECT_LT(
      GradCheck([](const auto& v) { return SumAll(MatMul(v[0], v[1])); },
                {a, b}),
      kTol);
}

TEST(GradCheckTest, ReshapePermuteSliceConcat) {
  Rng rng(4);
  ts::Tensor a = ts::Tensor::Randn({2, 6}, rng);
  ts::Tensor b = ts::Tensor::Randn({2, 3}, rng);

  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable r = Reshape(v[0], {3, 4});
                  return SumAll(Mul(r, r));
                },
                {a}),
            kTol);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable p = Permute(v[0], {1, 0});
                  return SumAll(Mul(p, p));
                },
                {a}),
            kTol);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable s = Slice(v[0], 1, 1, 4);
                  return SumAll(Mul(s, s));
                },
                {a}),
            kTol);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable c = Concat({v[0], v[1]}, 1);
                  return SumAll(Mul(c, c));
                },
                {a, b}),
            kTol);
}

TEST(GradCheckTest, Reductions) {
  Rng rng(5);
  ts::Tensor a = ts::Tensor::Randn({3, 4}, rng);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable s = Sum(v[0], 0, false);
                  return SumAll(Mul(s, s));
                },
                {a}),
            kTol);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable m = Mean(v[0], 1, true);
                  return SumAll(Mul(m, m));
                },
                {a}),
            kTol);
  EXPECT_LT(
      GradCheck([](const auto& v) { return MeanAll(Mul(v[0], v[0])); }, {a}),
      kTol);
}

TEST(GradCheckTest, Conv2d) {
  Rng rng(6);
  ts::Tensor x = ts::Tensor::Randn({2, 2, 5, 5}, rng);
  ts::Tensor w = ts::Tensor::Randn({3, 2, 3, 3}, rng, 0.0f, 0.5f);
  ts::Tensor b = ts::Tensor::Randn({3}, rng);
  ts::ConvSpec spec{.stride = 1, .padding = 1};
  EXPECT_LT(GradCheck(
                [&spec](const auto& v) {
                  Variable y = Conv2d(v[0], v[1], v[2], spec);
                  return MeanAll(Mul(y, y));
                },
                {x, w, b}),
            kTol);
}

TEST(GradCheckTest, Conv2dStride2) {
  Rng rng(7);
  ts::Tensor x = ts::Tensor::Randn({1, 2, 6, 6}, rng);
  ts::Tensor w = ts::Tensor::Randn({2, 2, 3, 3}, rng, 0.0f, 0.5f);
  ts::ConvSpec spec{.stride = 2, .padding = 1};
  EXPECT_LT(GradCheck(
                [&spec](const auto& v) {
                  Variable y = Conv2d(v[0], v[1], Variable(), spec);
                  return SumAll(Mul(y, y));
                },
                {x, w}),
            kTol);
}

TEST(GradCheckTest, ConvTranspose2d) {
  Rng rng(8);
  ts::Tensor x = ts::Tensor::Randn({1, 3, 4, 4}, rng);
  ts::Tensor w = ts::Tensor::Randn({3, 2, 2, 2}, rng, 0.0f, 0.5f);
  ts::Tensor b = ts::Tensor::Randn({2}, rng);
  ts::ConvSpec spec{.stride = 2, .padding = 0};
  EXPECT_LT(GradCheck(
                [&spec](const auto& v) {
                  Variable y = ConvTranspose2d(v[0], v[1], v[2], spec);
                  return SumAll(Mul(y, y));
                },
                {x, w, b}),
            kTol);
}

TEST(GradCheckTest, Conv2dStride2PaddedParallelDevice) {
  // Same strided/padded geometry as Conv2dStride2 but on the parallel
  // backend, with bias: covers the pool-dispatched sample loop, the
  // beta=1 weight-gradient accumulation, and the transposed-operand
  // GEMM paths in Conv2dBackward.
  DeviceGuard guard(Device::kParallel);
  Rng rng(21);
  ts::Tensor x = ts::Tensor::Randn({2, 3, 6, 6}, rng);
  ts::Tensor w = ts::Tensor::Randn({4, 3, 3, 3}, rng, 0.0f, 0.5f);
  ts::Tensor b = ts::Tensor::Randn({4}, rng);
  ts::ConvSpec spec{.stride = 2, .padding = 1};
  EXPECT_LT(GradCheck(
                [&spec](const auto& v) {
                  Variable y = Conv2d(v[0], v[1], v[2], spec);
                  return MeanAll(Mul(y, y));
                },
                {x, w, b}),
            kTol);
}

TEST(GradCheckTest, ConvTranspose2dStride2PaddedParallelDevice) {
  DeviceGuard guard(Device::kParallel);
  Rng rng(22);
  ts::Tensor x = ts::Tensor::Randn({2, 3, 4, 4}, rng);
  ts::Tensor w = ts::Tensor::Randn({3, 2, 3, 3}, rng, 0.0f, 0.5f);
  ts::Tensor b = ts::Tensor::Randn({2}, rng);
  ts::ConvSpec spec{.stride = 2, .padding = 1};
  EXPECT_LT(GradCheck(
                [&spec](const auto& v) {
                  Variable y = ConvTranspose2d(v[0], v[1], v[2], spec);
                  return MeanAll(Mul(y, y));
                },
                {x, w, b}),
            kTol);
}

TEST(GradCheckTest, MaxPoolAndUpsample) {
  Rng rng(9);
  ts::Tensor x = ts::Tensor::Randn({1, 2, 4, 4}, rng);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable y = MaxPool2d(v[0], 2);
                  return SumAll(Mul(y, y));
                },
                {x}),
            kTol);
  EXPECT_LT(GradCheck(
                [](const auto& v) {
                  Variable y = UpsampleNearest2x(v[0]);
                  return SumAll(Mul(y, y));
                },
                {x}),
            kTol);
}

std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  std::memcpy(bits.data(), t.data(), bits.size() * sizeof(uint32_t));
  return bits;
}

TEST(MaxPoolEvalTest, EqualsGradPathBitwise) {
  // SatCNN's three pools (base_filters 8 on 13x64x64 input), then
  // kernel 3 for the generic loop. Drawing every element from a small
  // set makes ties, -0/+0 pairs and NaNs land at every tap position;
  // every other plane draws no positive value, so its windows' winners
  // are mostly a zero of either sign.
  struct Case {
    int64_t n, c, h, w, k;
  };
  const Case cases[] = {{2, 8, 64, 64, 2},
                        {2, 16, 32, 32, 2},
                        {2, 16, 16, 16, 2},
                        {2, 3, 9, 12, 3}};
  const float values[] = {-1.0f, -0.0f, 0.0f,
                          std::numeric_limits<float>::quiet_NaN(), 0.5f, 2.0f};
  Rng rng(31);
  for (const Case& cs : cases) {
    ts::Tensor x = ts::Tensor::Uninitialized({cs.n, cs.c, cs.h, cs.w});
    const int64_t plane = cs.h * cs.w;
    for (int64_t i = 0; i < x.numel(); ++i) {
      x.flat(i) = values[rng.UniformInt(0, (i / plane) % 2 == 0 ? 5 : 3)];
    }
    for (const Device dev : {Device::kSerial, Device::kParallel}) {
      DeviceGuard guard(dev);
      const Variable grad_path = MaxPool2d(Variable(x, true), cs.k);
      ASSERT_TRUE(grad_path.requires_grad());
      const std::vector<uint32_t> want = Bits(grad_path.value());
      EXPECT_EQ(want, Bits(ts::MaxPool2dEval(x, cs.k)))
          << "kernel " << cs.k << " h " << cs.h;
      EXPECT_EQ(want, Bits(MaxPool2d(Variable(x), cs.k).value()));
      NoGradGuard no_grad;
      const Variable eval = MaxPool2d(Variable(x, true), cs.k);
      EXPECT_FALSE(eval.requires_grad());
      EXPECT_EQ(want, Bits(eval.value()));
    }
  }
}

TEST(GradCheckTest, Losses) {
  Rng rng(10);
  ts::Tensor pred = ts::Tensor::Randn({4, 3}, rng);
  ts::Tensor target = ts::Tensor::Randn({4, 3}, rng);
  EXPECT_LT(GradCheck(
                [&target](const auto& v) { return MseLoss(v[0], target); },
                {pred}),
            kTol);

  ts::Tensor labels = ts::Tensor::FromVector({4}, {0, 2, 1, 2});
  EXPECT_LT(GradCheck([&labels](const auto& v) {
              return CrossEntropyLoss(v[0], labels);
            },
                      {pred}),
            kTol);

  ts::Tensor bin = ts::Tensor::FromVector({4}, {0, 1, 1, 0});
  ts::Tensor z = ts::Tensor::Randn({4}, rng);
  EXPECT_LT(GradCheck(
                [&bin](const auto& v) { return BceWithLogitsLoss(v[0], bin); },
                {z}),
            kTol);
}

TEST(GradCheckTest, SpatialCrossEntropy) {
  Rng rng(11);
  ts::Tensor logits = ts::Tensor::Randn({2, 3, 2, 2}, rng);
  ts::Tensor labels = ts::Tensor::FromVector({2, 2, 2}, {0, 1, 2, 0, 1, 1, 2, 0});
  EXPECT_LT(GradCheck([&labels](const auto& v) {
              return CrossEntropyLoss(v[0], labels);
            },
                      {logits}),
            kTol);
}

TEST(LossTest, CrossEntropyValue) {
  // Uniform logits over 4 classes -> loss = log(4).
  ts::Tensor logits = ts::Tensor::Zeros({2, 4});
  ts::Tensor labels = ts::Tensor::FromVector({2}, {1, 3});
  Variable loss = CrossEntropyLoss(Variable(logits, true), labels);
  EXPECT_NEAR(loss.value().flat(0), std::log(4.0f), 1e-5);
}

TEST(DropoutTest, EvalIsIdentityTrainingScales) {
  Rng rng(12);
  Variable x(ts::Tensor::Ones({1000}), true);
  Variable eval_out = Dropout(x, 0.4f, /*training=*/false, rng);
  EXPECT_TRUE(ts::AllClose(eval_out.value(), x.value()));

  Variable train_out = Dropout(x, 0.4f, /*training=*/true, rng);
  // Kept entries are scaled by 1/(1-p); mean stays ~1.
  EXPECT_NEAR(ts::MeanAll(train_out.value()), 1.0f, 0.1f);
}

}  // namespace
}  // namespace geotorch::autograd
