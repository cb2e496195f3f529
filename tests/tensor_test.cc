#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/shape.h"
#include "tests/temp_path.h"

namespace geotorch::tensor {
namespace {

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({3}), 3);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({5, 0}), 0);
}

TEST(ShapeTest, ContiguousStrides) {
  auto s = ContiguousStrides({2, 3, 4});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 12);
  EXPECT_EQ(s[1], 4);
  EXPECT_EQ(s[2], 1);
}

TEST(ShapeTest, BroadcastShapes) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
  EXPECT_EQ(BroadcastShapes({1}, {5}), (Shape{5}));
}

TEST(ShapeTest, BroadcastableTo) {
  EXPECT_TRUE(BroadcastableTo({1, 3}, {2, 3}));
  EXPECT_TRUE(BroadcastableTo({3}, {2, 3}));
  EXPECT_FALSE(BroadcastableTo({2}, {2, 3}));
  EXPECT_FALSE(BroadcastableTo({2, 3, 4}, {3, 4}));
}

TEST(TensorTest, FactoriesAndAccess) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.at({1, 2}), 0.0f);

  Tensor o = Tensor::Ones({4});
  EXPECT_EQ(SumAll(o), 4.0f);

  Tensor f = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(f.at({0, 1}), 3.5f);

  Tensor a = Tensor::Arange(5);
  EXPECT_EQ(a.flat(3), 3.0f);

  Tensor v = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(v.at({1, 0}), 3.0f);
}

TEST(TensorTest, RandomFactoriesDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  Tensor a = Tensor::Randn({8}, rng1);
  Tensor b = Tensor::Randn({8}, rng2);
  EXPECT_TRUE(AllClose(a, b));
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::Arange(6);
  Tensor b = a.Reshape({2, 3});
  EXPECT_TRUE(a.SharesStorageWith(b));
  b.at({0, 0}) = 99.0f;
  EXPECT_EQ(a.flat(0), 99.0f);
}

TEST(TensorTest, ReshapeInfersDimension) {
  Tensor a = Tensor::Arange(12);
  Tensor b = a.Reshape({3, -1});
  EXPECT_EQ(b.size(1), 4);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::Arange(4);
  Tensor b = a.Clone();
  EXPECT_FALSE(a.SharesStorageWith(b));
  b.flat(0) = -1.0f;
  EXPECT_EQ(a.flat(0), 0.0f);
}

TEST(TensorTest, AddInPlaceAndScale) {
  Tensor a = Tensor::Ones({3});
  Tensor b = Tensor::Full({3}, 2.0f);
  a.AddInPlace(b);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.flat(0), 6.0f);
}

TEST(OpsTest, ElementwiseBasics) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  EXPECT_TRUE(AllClose(Add(a, b), Tensor::FromVector({3}, {5, 7, 9})));
  EXPECT_TRUE(AllClose(Sub(b, a), Tensor::FromVector({3}, {3, 3, 3})));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor::FromVector({3}, {4, 10, 18})));
  EXPECT_TRUE(AllClose(Div(b, a), Tensor::FromVector({3}, {4, 2.5f, 2})));
  EXPECT_TRUE(AllClose(Maximum(a, Tensor::FromVector({3}, {2, 2, 2})),
                       Tensor::FromVector({3}, {2, 2, 3})));
}

TEST(OpsTest, BroadcastAdd) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromVector({3}, {10, 20, 30});
  Tensor col = Tensor::FromVector({2, 1}, {100, 200});
  Tensor s1 = Add(a, row);
  EXPECT_EQ(s1.at({1, 2}), 36.0f);
  Tensor s2 = Add(a, col);
  EXPECT_EQ(s2.at({0, 0}), 101.0f);
  EXPECT_EQ(s2.at({1, 0}), 204.0f);
}

TEST(OpsTest, BroadcastChannelParams) {
  // The BatchNorm pattern: (N,C,H,W) * (1,C,1,1).
  Tensor x = Tensor::Ones({2, 3, 2, 2});
  Tensor g = Tensor::FromVector({1, 3, 1, 1}, {1, 2, 3});
  Tensor y = Mul(x, g);
  EXPECT_EQ(y.at({0, 0, 0, 0}), 1.0f);
  EXPECT_EQ(y.at({1, 1, 1, 1}), 2.0f);
  EXPECT_EQ(y.at({1, 2, 0, 1}), 3.0f);
}

TEST(OpsTest, UnaryOps) {
  Tensor a = Tensor::FromVector({4}, {-1, 0, 1, 4});
  EXPECT_TRUE(AllClose(Relu(a), Tensor::FromVector({4}, {0, 0, 1, 4})));
  EXPECT_TRUE(AllClose(Abs(a), Tensor::FromVector({4}, {1, 0, 1, 4})));
  EXPECT_TRUE(AllClose(Neg(a), Tensor::FromVector({4}, {1, 0, -1, -4})));
  EXPECT_NEAR(Sqrt(a).flat(3), 2.0f, 1e-6);
  EXPECT_NEAR(Sigmoid(Tensor::Zeros({1})).flat(0), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(Tensor::Zeros({1})).flat(0), 0.0f, 1e-6);
  EXPECT_TRUE(AllClose(Clamp(a, 0.0f, 2.0f),
                       Tensor::FromVector({4}, {0, 0, 1, 2})));
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(SumAll(a), 21.0f);
  EXPECT_EQ(MeanAll(a), 3.5f);
  EXPECT_EQ(MaxAll(a), 6.0f);
  EXPECT_EQ(MinAll(a), 1.0f);
  EXPECT_TRUE(AllClose(Sum(a, 0), Tensor::FromVector({3}, {5, 7, 9})));
  EXPECT_TRUE(AllClose(Sum(a, 1), Tensor::FromVector({2}, {6, 15})));
  EXPECT_TRUE(
      AllClose(Sum(a, 1, true), Tensor::FromVector({2, 1}, {6, 15})));
  EXPECT_TRUE(AllClose(Mean(a, 0), Tensor::FromVector({3}, {2.5f, 3.5f, 4.5f})));
}

TEST(OpsTest, SumToShape) {
  Tensor a = Tensor::Ones({2, 3, 4});
  Tensor s = SumToShape(a, {3, 4});
  EXPECT_EQ(s.shape(), (Shape{3, 4}));
  EXPECT_EQ(s.flat(0), 2.0f);
  Tensor s2 = SumToShape(a, {1, 3, 1});
  EXPECT_EQ(s2.shape(), (Shape{1, 3, 1}));
  EXPECT_EQ(s2.flat(0), 8.0f);
}

TEST(OpsTest, Argmax) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 9, 3, 7, 2, 5});
  Tensor m = Argmax(a, 1);
  EXPECT_EQ(m.flat(0), 1.0f);
  EXPECT_EQ(m.flat(1), 0.0f);
  Tensor m0 = Argmax(a, 0);
  EXPECT_EQ(m0.flat(0), 1.0f);  // 7 > 1
  EXPECT_EQ(m0.flat(1), 0.0f);  // 9 > 2
}

TEST(OpsTest, MatMul) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(
      AllClose(c, Tensor::FromVector({2, 2}, {58, 64, 139, 154})));
}

TEST(OpsTest, MatMulSerialEqualsParallel) {
  Rng rng(7);
  Tensor a = Tensor::Randn({64, 32}, rng);
  Tensor b = Tensor::Randn({32, 48}, rng);
  Tensor serial;
  Tensor parallel;
  {
    DeviceGuard guard(Device::kSerial);
    serial = MatMul(a, b);
  }
  {
    DeviceGuard guard(Device::kParallel);
    parallel = MatMul(a, b);
  }
  EXPECT_TRUE(AllClose(serial, parallel, 1e-4f, 1e-5f));
}

TEST(OpsTest, Transpose2d) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 1}), 6.0f);
  EXPECT_TRUE(AllClose(Transpose2d(t), a));
}

TEST(OpsTest, Permute) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(p.at({1, 1, 2}), a.at({1, 2, 1}));
}

TEST(OpsTest, ConcatAndSlice) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  Tensor c0 = Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), (Shape{4, 2}));
  EXPECT_EQ(c0.at({2, 0}), 5.0f);
  Tensor c1 = Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), (Shape{2, 4}));
  EXPECT_EQ(c1.at({0, 2}), 5.0f);
  EXPECT_TRUE(AllClose(Slice(c1, 1, 0, 2), a));
  EXPECT_TRUE(AllClose(Slice(c1, 1, 2, 4), b));
  EXPECT_TRUE(AllClose(Slice(c0, 0, 2, 4), b));
}

TEST(OpsTest, Stack) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  Tensor s = Stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at({1, 0}), 3.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 7}, rng);
  Tensor s = Softmax(a, 1);
  Tensor rows = Sum(s, 1);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(rows.flat(i), 1.0f, 1e-5);
}

TEST(OpsTest, LogSoftmaxStability) {
  // Large logits must not produce inf/nan.
  Tensor a = Tensor::FromVector({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  Tensor l = LogSoftmax(a, 1);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(l.flat(i)));
  }
  EXPECT_NEAR(l.flat(2), -0.40761f, 1e-3);
}


TEST(InPlaceOpsTest, MulInPlace) {
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({4}, {2, 0.5f, -1, 3});
  MulInPlace(a, b);
  EXPECT_TRUE(AllClose(a, Tensor::FromVector({4}, {2, 1, -3, 12})));
}

TEST(InPlaceOpsTest, NegInPlace) {
  Tensor a = Tensor::FromVector({3}, {1, -2, 0});
  NegInPlace(a);
  EXPECT_TRUE(AllClose(a, Tensor::FromVector({3}, {-1, 2, 0})));
}

TEST(InPlaceOpsTest, AddScaledInPlace) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  AddScaledInPlace(a, b, 0.5f);
  EXPECT_TRUE(AllClose(a, Tensor::FromVector({3}, {6, 12, 18})));
}

TEST(InPlaceOpsTest, ReluMaskInPlace) {
  Tensor g = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor x = Tensor::FromVector({4}, {-1, 2, 0, 5});
  ReluMaskInPlace(g, x);
  EXPECT_TRUE(AllClose(g, Tensor::FromVector({4}, {0, 2, 0, 4})));

  Tensor g2 = Tensor::FromVector({2}, {10, 10});
  Tensor x2 = Tensor::FromVector({2}, {-1, 1});
  ReluMaskInPlace(g2, x2, 0.1f);
  EXPECT_TRUE(AllClose(g2, Tensor::FromVector({2}, {1, 10})));
}

TEST(InPlaceOpsTest, SigmoidAndTanhGradMatchExpanded) {
  Tensor x = Tensor::FromVector({4}, {-2, -0.5f, 0.5f, 2});
  Tensor y_sig = Sigmoid(x);
  Tensor g = Tensor::Ones({4});
  SigmoidGradInPlace(g, y_sig);
  Tensor expect = Mul(y_sig, Map(y_sig, [](float v) { return 1.0f - v; }));
  EXPECT_TRUE(AllClose(g, expect));

  Tensor y_tanh = Tanh(x);
  Tensor g2 = Tensor::Ones({4});
  TanhGradInPlace(g2, y_tanh);
  Tensor expect2 = Map(y_tanh, [](float v) { return 1.0f - v * v; });
  EXPECT_TRUE(AllClose(g2, expect2));
}

TEST(InPlaceOpsTest, BroadcastTo) {
  Tensor row = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor out = BroadcastTo(row, {2, 3});
  EXPECT_TRUE(AllClose(out, Tensor::FromVector({2, 3}, {1, 2, 3, 1, 2, 3})));

  Tensor col = Tensor::FromVector({2, 1}, {5, 7});
  Tensor out2 = BroadcastTo(col, {2, 3});
  EXPECT_TRUE(
      AllClose(out2, Tensor::FromVector({2, 3}, {5, 5, 5, 7, 7, 7})));

  // Same shape returns the input (shared storage, no copy).
  Tensor same = BroadcastTo(row, {1, 3});
  EXPECT_TRUE(same.SharesStorageWith(row));

  // Matches the general binary-op broadcast machinery.
  Tensor via_add = Add(Tensor::Zeros({4, 2, 3}), col);
  EXPECT_TRUE(AllClose(BroadcastTo(col, {4, 2, 3}), via_add));
}

// --- every elementwise kernel against a scalar reference loop ------------
//
// The kernels in ops.cc are built with their own optimization flags;
// these cases pin that the vectorized loops compute exactly the scalar
// formula, bit for bit, on the values that expose a rewritten select or
// a reordered operation: ±0, ±inf, NaN, denormals and mixed signs. Each
// runs on both devices over more elements than the parallel threshold.

constexpr int64_t kBitwiseN = 40009;  // > the 1 << 15 parallel threshold

const std::vector<float>& SpecialValues() {
  static const std::vector<float> v = {
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 1e-40f, -3e-39f,
      std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(), 1.0f, -1.0f, 0.5f, -2.5f, 88.5f,
      -104.0f};
  return v;
}

// Specials first — cycling for an even seed, held in runs for an odd
// one, so an even/odd pair of same-shape tensors meets every (special,
// special) combination — then zero-mean values whose signs are a coin
// flip.
Tensor SpecialsTensor(const Shape& shape, uint64_t seed) {
  Tensor t = Tensor::Uninitialized(shape);
  const std::vector<float>& sv = SpecialValues();
  const int64_t s = static_cast<int64_t>(sv.size());
  Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (i < s * s) {
      t.flat(i) = seed % 2 == 0 ? sv[i % s] : sv[i / s];
    } else {
      t.flat(i) = static_cast<float>(rng.Uniform(-3.0, 3.0));
    }
  }
  return t;
}

uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }

void ExpectBitwise(const Tensor& got, const std::vector<float>& want,
                   const char* name) {
  ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size())) << name;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (Bits(got.flat(i)) != Bits(want[i]) && mismatches++ < 3) {
      ADD_FAILURE() << name << "[" << i << "]: got " << got.flat(i) << " (0x"
                    << std::hex << Bits(got.flat(i)) << "), want " << want[i]
                    << " (0x" << Bits(want[i]) << std::dec << ")";
    }
  }
  EXPECT_EQ(mismatches, 0) << name;
}

template <typename Fn>
std::vector<float> MapRef(const Tensor& a, Fn fn) {
  std::vector<float> out(a.numel());
  for (int64_t i = 0; i < a.numel(); ++i) out[i] = fn(a.flat(i));
  return out;
}

template <typename Fn>
std::vector<float> ZipRef(const Tensor& a, const Tensor& b, Fn fn) {
  std::vector<float> out(a.numel());
  for (int64_t i = 0; i < a.numel(); ++i) out[i] = fn(a.flat(i), b.flat(i));
  return out;
}

class ElementwiseBitwiseTest : public ::testing::TestWithParam<Device> {};

TEST_P(ElementwiseBitwiseTest, UnaryMatchesScalarLoop) {
  DeviceGuard guard(GetParam());
  const Tensor a = SpecialsTensor({kBitwiseN}, 0);
  ExpectBitwise(Neg(a), MapRef(a, [](float x) { return -x; }), "Neg");
  ExpectBitwise(Exp(a), MapRef(a, [](float x) { return std::exp(x); }),
                "Exp");
  ExpectBitwise(Log(a), MapRef(a, [](float x) { return std::log(x); }),
                "Log");
  ExpectBitwise(Sqrt(a), MapRef(a, [](float x) { return std::sqrt(x); }),
                "Sqrt");
  ExpectBitwise(Abs(a), MapRef(a, [](float x) { return std::fabs(x); }),
                "Abs");
  ExpectBitwise(Relu(a), MapRef(a, [](float x) { return x > 0.0f ? x : 0.0f; }),
                "Relu");
  ExpectBitwise(LeakyRelu(a, 0.01f),
                MapRef(a, [](float x) { return x > 0.0f ? x : 0.01f * x; }),
                "LeakyRelu");
  ExpectBitwise(
      Sigmoid(a),
      MapRef(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); }),
      "Sigmoid");
  ExpectBitwise(Tanh(a), MapRef(a, [](float x) { return std::tanh(x); }),
                "Tanh");
  ExpectBitwise(
      Clamp(a, -1.0f, 2.0f),
      MapRef(a, [](float x) { return std::clamp(x, -1.0f, 2.0f); }), "Clamp");
  ExpectBitwise(AddScalar(a, 0.25f),
                MapRef(a, [](float x) { return x + 0.25f; }), "AddScalar");
  ExpectBitwise(MulScalar(a, -3.0f),
                MapRef(a, [](float x) { return x * -3.0f; }), "MulScalar");
  // Not 2.0: the compiler folds pow(x, 2) into x * x in the reference.
  for (const float p : {1.5f, 3.0f}) {
    ExpectBitwise(PowScalar(a, p),
                  MapRef(a, [p](float x) { return std::pow(x, p); }),
                  "PowScalar");
  }
  // -0.0 is not > 0, so ReLU maps it to +0.0, not -0.0.
  EXPECT_EQ(Bits(Relu(Tensor::FromVector({1}, {-0.0f})).flat(0)), 0u);
}

TEST_P(ElementwiseBitwiseTest, BinarySameShapeMatchesScalarLoop) {
  DeviceGuard guard(GetParam());
  const Tensor a = SpecialsTensor({kBitwiseN}, 0);
  const Tensor b = SpecialsTensor({kBitwiseN}, 1);
  ExpectBitwise(Add(a, b), ZipRef(a, b, [](float x, float y) { return x + y; }),
                "Add");
  ExpectBitwise(Sub(a, b), ZipRef(a, b, [](float x, float y) { return x - y; }),
                "Sub");
  ExpectBitwise(Mul(a, b), ZipRef(a, b, [](float x, float y) { return x * y; }),
                "Mul");
  ExpectBitwise(Div(a, b), ZipRef(a, b, [](float x, float y) { return x / y; }),
                "Div");
  ExpectBitwise(
      Maximum(a, b),
      ZipRef(a, b, [](float x, float y) { return std::max(x, y); }),
      "Maximum");
}

TEST_P(ElementwiseBitwiseTest, BinaryBroadcastMatchesScalarLoop) {
  DeviceGuard guard(GetParam());
  const Tensor a = SpecialsTensor({19, 9, 256}, 0);  // 43776 elements
  const Tensor b = SpecialsTensor({9, 1}, 2);
  auto broadcast_ref = [&](auto fn) {
    std::vector<float> out(a.numel());
    for (int64_t i = 0; i < a.numel(); ++i) {
      out[i] = fn(a.flat(i), b.flat((i / 256) % 9));
    }
    return out;
  };
  ExpectBitwise(Add(a, b), broadcast_ref([](float x, float y) { return x + y; }),
                "Add");
  ExpectBitwise(Sub(a, b), broadcast_ref([](float x, float y) { return x - y; }),
                "Sub");
  ExpectBitwise(Mul(a, b), broadcast_ref([](float x, float y) { return x * y; }),
                "Mul");
  ExpectBitwise(Div(a, b), broadcast_ref([](float x, float y) { return x / y; }),
                "Div");
  ExpectBitwise(
      Maximum(a, b),
      broadcast_ref([](float x, float y) { return std::max(x, y); }),
      "Maximum");
  ExpectBitwise(BroadcastTo(b, {19, 9, 256}),
                broadcast_ref([](float, float y) { return y; }),
                "BroadcastTo");
}

TEST_P(ElementwiseBitwiseTest, InPlaceMatchesScalarLoop) {
  DeviceGuard guard(GetParam());
  const Tensor a = SpecialsTensor({kBitwiseN}, 0);
  const Tensor b = SpecialsTensor({kBitwiseN}, 1);
  auto run = [&](auto op) {
    Tensor d = a.Clone();
    op(d);
    return d;
  };
  ExpectBitwise(run([&](Tensor& d) { MulInPlace(d, b); }),
                ZipRef(a, b, [](float x, float y) { return x * y; }),
                "MulInPlace");
  ExpectBitwise(run([&](Tensor& d) { d.AddInPlace(b); }),
                ZipRef(a, b, [](float x, float y) { return x + y; }),
                "AddInPlace");
  for (const float s : {-0.75f, 0.0f, -0.0f, 1e-39f}) {
    ExpectBitwise(run([s](Tensor& d) { d.ScaleInPlace(s); }),
                  MapRef(a, [s](float x) { return x * s; }), "ScaleInPlace");
  }
  ExpectBitwise(run([](Tensor& d) { NegInPlace(d); }),
                MapRef(a, [](float x) { return -x; }), "NegInPlace");
  ExpectBitwise(run([&](Tensor& d) { AddScaledInPlace(d, b, -0.75f); }),
                ZipRef(a, b, [](float x, float y) { return x + -0.75f * y; }),
                "AddScaledInPlace");
  // The ReLU backward mask: NaN gradients pass through (x > 0) or are
  // scaled like any other value, never dropped by a rewritten select.
  for (const float slope : {0.0f, 0.1f}) {
    ExpectBitwise(
        run([&](Tensor& d) { ReluMaskInPlace(d, b, slope); }),
        ZipRef(a, b,
               [slope](float gv, float xv) { return xv > 0.0f ? gv : slope * gv; }),
        "ReluMaskInPlace");
  }
  ExpectBitwise(
      run([&](Tensor& d) { SigmoidGradInPlace(d, b); }),
      ZipRef(a, b, [](float gv, float yv) { return gv * yv * (1.0f - yv); }),
      "SigmoidGradInPlace");
  ExpectBitwise(
      run([&](Tensor& d) { TanhGradInPlace(d, b); }),
      ZipRef(a, b, [](float gv, float yv) { return gv * (1.0f - yv * yv); }),
      "TanhGradInPlace");
}

INSTANTIATE_TEST_SUITE_P(Devices, ElementwiseBitwiseTest,
                         ::testing::Values(Device::kSerial, Device::kParallel),
                         [](const ::testing::TestParamInfo<Device>& info) {
                           return info.param == Device::kSerial ? "Serial"
                                                                : "Parallel";
                         });

TEST(TensorTest, UninitializedHasShapeAndWritableStorage) {
  Tensor t = Tensor::Uninitialized({3, 5});
  EXPECT_EQ(t.numel(), 15);
  t.Fill(2.5f);
  EXPECT_TRUE(AllClose(t, Tensor::Full({3, 5}, 2.5f)));
}

TEST(SerializeTest, RoundTrip) {
  Rng rng(11);
  Tensor a = Tensor::Randn({3, 4, 5}, rng);
  const ScopedTempPath path("t.gten");
  ASSERT_TRUE(SaveTensor(path, a).ok());
  auto loaded = LoadTensor(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(AllClose(*loaded, a, 0.0f, 0.0f));
}

// A reader racing rewrites of one tensor file sees the old file or the
// new one, never a torn one, and no temp file is left behind.
TEST(SerializeTest, ReadsRacingRewritesNeverSeeATornFile) {
  const ScopedTempPath dir("gten_race");
  std::filesystem::create_directory(dir.str());
  const std::string path = dir.str() + "/grid.gten";
  Rng rng(12);
  const Tensor t = Tensor::Randn({64, 32, 32}, rng);
  ASSERT_TRUE(SaveTensor(path, t).ok());

  constexpr int kRounds = 200;
  std::thread writer([&] {
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_TRUE(SaveTensor(path, t).ok()) << i;
    }
  });
  int bad_reads = 0;
  std::string first_error;
  for (int i = 0; i < kRounds; ++i) {
    auto r = LoadTensor(path);
    if (!r.ok() && bad_reads++ == 0) first_error = r.status().ToString();
  }
  writer.join();
  EXPECT_EQ(bad_reads, 0) << first_error;
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"grid.gten"});
}

TEST(SerializeTest, MissingFileIsIoError) {
  auto r = LoadTensor("/nonexistent/nope.gten");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace geotorch::tensor
