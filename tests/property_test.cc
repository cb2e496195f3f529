// Property-based (parameterized) tests: each suite sweeps a parameter
// space and checks an invariant against an independent reference
// implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "datasets/grid_dataset.h"
#include "df/dataframe.h"
#include "obs/obs.h"
#include "spatial/join.h"
#include "spatial/strtree.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace geotorch {
namespace {

namespace ts = ::geotorch::tensor;

// --- Conv2d against a direct 7-loop reference -----------------------------

using ConvParams = std::tuple<int, int, int, int, int, int>;
// (in_channels, filters, kernel, stride, padding, size)

class ConvSweep : public ::testing::TestWithParam<ConvParams> {};

ts::Tensor DirectConv(const ts::Tensor& x, const ts::Tensor& w,
                      const ts::Tensor& bias, const ts::ConvSpec& spec) {
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
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t oi = 0; oi < oh; ++oi) {
        for (int64_t oj = 0; oj < ow; ++oj) {
          float acc = bias.numel() > 0 ? bias.flat(fi) : 0.0f;
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < kh; ++ki) {
              for (int64_t kj = 0; kj < kw; ++kj) {
                const int64_t ii = oi * spec.stride + ki - spec.padding;
                const int64_t jj = oj * spec.stride + kj - spec.padding;
                if (ii < 0 || ii >= h || jj < 0 || jj >= wd) continue;
                acc += x.at({i, ci, ii, jj}) * w.at({fi, ci, ki, kj});
              }
            }
          }
          out.at({i, fi, oi, oj}) = acc;
        }
      }
    }
  }
  return out;
}

TEST_P(ConvSweep, Im2ColMatchesDirect) {
  auto [c, f, k, stride, padding, size] = GetParam();
  Rng rng(c * 100 + f * 10 + k);
  ts::Tensor x = ts::Tensor::Randn({2, c, size, size}, rng);
  ts::Tensor w = ts::Tensor::Randn({f, c, k, k}, rng, 0.0f, 0.5f);
  ts::Tensor b = ts::Tensor::Randn({f}, rng);
  ts::ConvSpec spec{.stride = stride, .padding = padding};
  ts::Tensor fast = ts::Conv2dForward(x, w, b, spec);
  ts::Tensor slow = DirectConv(x, w, b, spec);
  EXPECT_TRUE(ts::AllClose(fast, slow, 1e-4f, 1e-4f))
      << "c=" << c << " f=" << f << " k=" << k << " s=" << stride
      << " p=" << padding << " size=" << size;
}

// Index-arithmetic im2col of sample n: every (tap, output pixel) pair
// checks its own bounds.
std::vector<float> IndexIm2Col(const ts::Tensor& x, int64_t n, int64_t k,
                               const ts::ConvSpec& spec) {
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t oh = ts::ConvOutSize(h, k, spec.stride, spec.padding);
  const int64_t ow = ts::ConvOutSize(wd, k, spec.stride, spec.padding);
  std::vector<float> cols(c * k * k * oh * ow);
  for (int64_t row = 0; row < c * k * k; ++row) {
    const int64_t ci = row / (k * k);
    const int64_t ki = row / k % k;
    const int64_t kj = row % k;
    for (int64_t col = 0; col < oh * ow; ++col) {
      const int64_t ii = col / ow * spec.stride + ki - spec.padding;
      const int64_t jj = col % ow * spec.stride + kj - spec.padding;
      const bool inside = ii >= 0 && ii < h && jj >= 0 && jj < wd;
      cols[row * oh * ow + col] = inside ? x.at({n, ci, ii, jj}) : 0.0f;
    }
  }
  return cols;
}

// Index-arithmetic col2im: the same (row, col) walk, scatter-adding
// into out[n] in that order.
void IndexCol2ImAdd(const ts::Tensor& cols, ts::Tensor& out, int64_t n,
                    int64_t k, const ts::ConvSpec& spec) {
  const int64_t c = out.size(1);
  const int64_t h = out.size(2);
  const int64_t wd = out.size(3);
  const int64_t oh = ts::ConvOutSize(h, k, spec.stride, spec.padding);
  const int64_t ow = ts::ConvOutSize(wd, k, spec.stride, spec.padding);
  for (int64_t row = 0; row < c * k * k; ++row) {
    const int64_t ci = row / (k * k);
    const int64_t ki = row / k % k;
    const int64_t kj = row % k;
    for (int64_t col = 0; col < oh * ow; ++col) {
      const int64_t ii = col / ow * spec.stride + ki - spec.padding;
      const int64_t jj = col % ow * spec.stride + kj - spec.padding;
      if (ii < 0 || ii >= h || jj < 0 || jj >= wd) continue;
      out.at({n, ci, ii, jj}) += cols.flat(row * oh * ow + col);
    }
  }
}

std::vector<uint32_t> BitsOf(const float* p, int64_t count) {
  std::vector<uint32_t> bits(count);
  for (int64_t i = 0; i < count; ++i) bits[i] = std::bit_cast<uint32_t>(p[i]);
  return bits;
}

// The span-based Im2Col/Col2ImAdd skip whole out-of-image runs instead
// of testing each element; the values (and, for col2im, the order each
// image element accumulates its terms in) must not change.
TEST_P(ConvSweep, Im2ColAndCol2ImMatchIndexReferenceBitwise) {
  auto [c, f, k, stride, padding, size] = GetParam();
  (void)f;
  Rng rng(c * 1000 + k * 100 + stride * 10 + padding);
  const ts::Tensor x = ts::Tensor::Randn({2, c, size, size}, rng);
  const ts::ConvSpec spec{.stride = stride, .padding = padding};
  for (int64_t n = 0; n < 2; ++n) {
    const ts::Tensor cols = ts::Im2Col(x, n, k, k, spec);
    const std::vector<float> want = IndexIm2Col(x, n, k, spec);
    ASSERT_EQ(cols.numel(), static_cast<int64_t>(want.size()));
    EXPECT_EQ(BitsOf(cols.data(), cols.numel()),
              BitsOf(want.data(), cols.numel()))
        << "im2col n=" << n;

    // Scatter random columns into a non-zero image: accumulation, not
    // just placement, is under test.
    const ts::Tensor g = ts::Tensor::Randn(cols.shape(), rng);
    ts::Tensor got = ts::Tensor::Randn({2, c, size, size}, rng);
    ts::Tensor ref = got.Clone();
    ts::Col2ImAdd(g, got, n, k, k, spec);
    IndexCol2ImAdd(g, ref, n, k, spec);
    EXPECT_EQ(BitsOf(got.data(), got.numel()), BitsOf(ref.data(), ref.numel()))
        << "col2im n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvParams{1, 1, 1, 1, 0, 4},
                      ConvParams{1, 2, 3, 1, 1, 5},
                      ConvParams{3, 4, 3, 1, 1, 8},
                      ConvParams{2, 3, 5, 1, 2, 9},
                      ConvParams{2, 2, 3, 2, 1, 8},
                      ConvParams{4, 8, 3, 2, 0, 10},
                      ConvParams{3, 2, 1, 1, 0, 6},
                      ConvParams{2, 5, 4, 2, 1, 12},
                      ConvParams{2, 3, 3, 1, 2, 5},    // padding = k - 1
                      ConvParams{3, 2, 4, 2, 3, 7},    // strided, padding = k - 1
                      ConvParams{2, 2, 5, 1, 2, 4}));  // kernel wider than image

// --- Conv2dBackward against im2col + GEMM + col2im, bit for bit ----------

struct ConvBackwardCase {
  int64_t n, c, f, k, stride, pad, size;
  bool specials;  // seed x, w and grad_out with ±0/±inf/NaN/denormals
};

void PrintTo(const ConvBackwardCase& p, std::ostream* os) {
  *os << "n" << p.n << "_c" << p.c << "_f" << p.f << "_k" << p.k << "_s"
      << p.stride << "_p" << p.pad << "_hw" << p.size
      << (p.specials ? "_specials" : "");
}

class ConvBackwardSweep : public ::testing::TestWithParam<ConvBackwardCase> {};

// Randn values, with the leading elements replaced by special values
// (each tensor starts its cycle at a different offset, so specials meet
// specials and ordinary values in the products).
ts::Tensor ConvBackwardOperand(const ts::Shape& shape, Rng& rng,
                               bool specials, int64_t offset) {
  ts::Tensor t = ts::Tensor::Randn(shape, rng);
  if (!specials) return t;
  static const float kSpecials[] = {
      0.0f, -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 1e-40f,
      std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(), 1e30f};
  const int64_t s = sizeof(kSpecials) / sizeof(kSpecials[0]);
  for (int64_t i = 0; i < std::min<int64_t>(t.numel(), 4 * s); ++i) {
    t.flat(i * 7 % t.numel()) = kSpecials[(i + offset) % s];
  }
  return t;
}

// Reference backward: per sample, im2col + Gemm(trans_b, beta 1)
// for the weights and Gemm(trans_a, beta 0) + col2im for the input,
// samples split into 8 contiguous parts merged in part order (the
// kConvGradParts split of conv.cc).
ts::Conv2dGrads ReferenceConvBackward(const ts::Tensor& g,
                                      const ts::Tensor& x,
                                      const ts::Tensor& w,
                                      const ts::ConvSpec& spec) {
  const int64_t n = x.size(0);
  const int64_t f = w.size(0);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t ck = x.size(1) * kh * kw;
  const int64_t l = g.size(2) * g.size(3);
  const int64_t parts = std::min<int64_t>(n, 8);
  const int64_t per = (n + parts - 1) / parts;
  ts::Conv2dGrads out;
  out.grad_x = ts::Tensor::Zeros(x.shape());
  out.grad_w = ts::Tensor::Zeros({f, ck});
  out.grad_bias = ts::Tensor::Zeros({f});
  ts::Tensor gcols = ts::Tensor::Uninitialized({ck, l});
  for (int64_t part = 0; part < parts; ++part) {
    ts::Tensor gw = ts::Tensor::Zeros({f, ck});
    ts::Tensor gb = ts::Tensor::Zeros({f});
    for (int64_t i = part * per; i < std::min(n, (part + 1) * per); ++i) {
      const float* g_i = g.data() + i * f * l;
      const ts::Tensor cols = ts::Im2Col(x, i, kh, kw, spec);
      ts::Gemm(g_i, cols.data(), gw.data(), f, l, ck,
               {.beta = 1.0f, .trans_b = true});
      ts::Gemm(w.data(), g_i, gcols.data(), ck, f, l,
               {.beta = 0.0f, .trans_a = true});
      ts::Col2ImAdd(gcols, out.grad_x, i, kh, kw, spec);
      for (int64_t fi = 0; fi < f; ++fi) {
        double sum = 0.0;
        for (int64_t j = 0; j < l; ++j) sum += g_i[fi * l + j];
        gb.flat(fi) += static_cast<float>(sum);
      }
    }
    out.grad_w.AddInPlace(gw);
    out.grad_bias.AddInPlace(gb);
  }
  out.grad_w = out.grad_w.Reshape(w.shape());
  return out;
}

// Bit patterns with every NaN collapsed to one: when two NaNs meet in
// an add or FMA, which one propagates depends on the operand order the
// compiler picked for the instruction, which IEEE 754 leaves open and
// the same expression compiled in two places need not share.
std::vector<uint32_t> BitsOrNaN(const ts::Tensor& t) {
  std::vector<uint32_t> bits = BitsOf(t.data(), t.numel());
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (std::isnan(t.flat(i))) bits[i] = 0x7fc00000u;
  }
  return bits;
}

// x, w and grad_out of one case.
struct ConvBackwardOperands {
  ts::Tensor x, w, g;
  ts::ConvSpec spec;
};

ConvBackwardOperands MakeConvBackwardOperands(const ConvBackwardCase& p) {
  Rng rng(static_cast<uint64_t>(p.n * 10000 + p.c * 1000 + p.f * 10 + p.k));
  const int64_t o = ts::ConvOutSize(p.size, p.k, p.stride, p.pad);
  ConvBackwardOperands ops;
  ops.x = ConvBackwardOperand({p.n, p.c, p.size, p.size}, rng, p.specials, 0);
  ops.w = ConvBackwardOperand({p.f, p.c, p.k, p.k}, rng, p.specials, 5);
  ops.g = ConvBackwardOperand({p.n, p.f, o, o}, rng, p.specials, 9);
  ops.spec = {.stride = p.stride, .padding = p.pad};
  return ops;
}

TEST_P(ConvBackwardSweep, MatchesIm2ColGemmCol2ImBitwise) {
  const auto [x, w, g, spec] = MakeConvBackwardOperands(GetParam());
  ts::Conv2dGrads want;
  {
    DeviceGuard serial(Device::kSerial);
    want = ReferenceConvBackward(g, x, w, spec);
  }
  for (const Device device : {Device::kSerial, Device::kParallel}) {
    DeviceGuard guard(device);
    const ts::Conv2dGrads got = ts::Conv2dBackward(g, x, w, true, spec);
    const char* dev = device == Device::kSerial ? "serial" : "parallel";
    EXPECT_EQ(BitsOrNaN(got.grad_x), BitsOrNaN(want.grad_x))
        << "grad_x " << dev;
    EXPECT_EQ(BitsOrNaN(got.grad_w), BitsOrNaN(want.grad_w))
        << "grad_w " << dev;
    EXPECT_EQ(BitsOrNaN(got.grad_bias), BitsOrNaN(want.grad_bias))
        << "grad_bias " << dev;
  }
}

TEST_P(ConvBackwardSweep, SkippingGradXLeavesWeightGradsUnchanged) {
  const auto [x, w, g, spec] = MakeConvBackwardOperands(GetParam());
  const ts::Conv2dGrads full = ts::Conv2dBackward(g, x, w, true, spec);
  const ts::Conv2dGrads skip =
      ts::Conv2dBackward(g, x, w, true, spec, /*need_grad_x=*/false);
  EXPECT_EQ(skip.grad_x.numel(), 0);
  EXPECT_EQ(BitsOf(skip.grad_w.data(), skip.grad_w.numel()),
            BitsOf(full.grad_w.data(), full.grad_w.numel()));
  EXPECT_EQ(BitsOf(skip.grad_bias.data(), skip.grad_bias.numel()),
            BitsOf(full.grad_bias.data(), full.grad_bias.numel()));
}

// Every stride-1 case clears kBlockedMinWork (f·c·k²·oh·ow >= 2^15), so
// it runs the direct kernels; the last two keep the im2col path.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBackwardSweep,
    ::testing::Values(
        // The four convs of an ST-ResNet training step.
        ConvBackwardCase{32, 6, 16, 3, 1, 1, 16, false},
        ConvBackwardCase{32, 2, 16, 3, 1, 1, 16, false},
        ConvBackwardCase{32, 16, 16, 3, 1, 1, 16, false},
        ConvBackwardCase{32, 16, 2, 3, 1, 1, 16, false},
        // Filter tail (40 = 16 + 16 + 8), channel tail (5 < 6), two K
        // blocks of output positions (400 > 256), a column tail (20).
        ConvBackwardCase{3, 5, 40, 3, 1, 1, 20, false},
        ConvBackwardCase{2, 4, 8, 5, 1, 2, 12, false},    // 5×5, pad 2
        ConvBackwardCase{2, 8, 16, 3, 1, 0, 14, false},   // pad 0
        ConvBackwardCase{2, 32, 16, 1, 1, 0, 16, false},  // 1×1
        ConvBackwardCase{2, 3, 300, 3, 1, 1, 8, false},   // filters > kKC
        ConvBackwardCase{1, 16, 16, 3, 1, 1, 16, false},  // batch 1
        ConvBackwardCase{2, 8, 16, 5, 1, 2, 4, false},    // kernel > image
        ConvBackwardCase{2, 4, 16, 3, 1, 3, 8, false},    // pad > kernel - 1
        ConvBackwardCase{9, 16, 16, 3, 1, 1, 16, true},
        ConvBackwardCase{3, 5, 40, 3, 1, 1, 20, true},
        ConvBackwardCase{2, 4, 8, 3, 2, 1, 12, false},    // strided
        ConvBackwardCase{2, 2, 3, 3, 1, 1, 6, false}));   // below threshold

// --- Broadcasting against an index-arithmetic reference ------------------

using BroadcastParams = std::tuple<ts::Shape, ts::Shape>;

class BroadcastSweep : public ::testing::TestWithParam<BroadcastParams> {};

TEST_P(BroadcastSweep, AddMatchesManualIndexing) {
  auto [sa, sb] = GetParam();
  Rng rng(7);
  ts::Tensor a = ts::Tensor::Randn(sa, rng);
  ts::Tensor b = ts::Tensor::Randn(sb, rng);
  ts::Tensor out = ts::Add(a, b);
  const ts::Shape os = ts::BroadcastShapes(sa, sb);
  ASSERT_EQ(out.shape(), os);

  const auto stride_a = ts::ContiguousStrides(sa);
  const auto stride_b = ts::ContiguousStrides(sb);
  const auto stride_o = ts::ContiguousStrides(os);
  for (int64_t flat = 0; flat < out.numel(); ++flat) {
    // Decompose the output index; map to each input index.
    int64_t rem = flat;
    int64_t ia = 0;
    int64_t ib = 0;
    for (size_t d = 0; d < os.size(); ++d) {
      const int64_t idx = rem / stride_o[d];
      rem %= stride_o[d];
      const int da = static_cast<int>(d) -
                     static_cast<int>(os.size() - sa.size());
      const int db = static_cast<int>(d) -
                     static_cast<int>(os.size() - sb.size());
      if (da >= 0 && sa[da] != 1) ia += idx * stride_a[da];
      if (db >= 0 && sb[db] != 1) ib += idx * stride_b[db];
    }
    EXPECT_FLOAT_EQ(out.flat(flat), a.flat(ia) + b.flat(ib));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(BroadcastParams{{4}, {1}},
                      BroadcastParams{{2, 3}, {3}},
                      BroadcastParams{{2, 3}, {2, 1}},
                      BroadcastParams{{4, 1, 3}, {2, 3}},
                      BroadcastParams{{2, 3, 4}, {1, 3, 1}},
                      BroadcastParams{{1, 5}, {4, 1}},
                      BroadcastParams{{2, 1, 4, 1}, {3, 1, 5}}));

// --- GridDataset representations: sizes and sample boundaries -------------

using GridRepParams = std::tuple<int, int, int, int>;
// (timesteps, len_closeness, len_period, len_trend)

class PeriodicalSweep : public ::testing::TestWithParam<GridRepParams> {};

TEST_P(PeriodicalSweep, SampleIndexingInvariants) {
  auto [t, lc, lp, lt] = GetParam();
  const int steps_per_day = 4;
  ts::Tensor data({t, 1, 2, 2});
  for (int64_t i = 0; i < t; ++i) {
    for (int p = 0; p < 4; ++p) data.flat(i * 4 + p) = static_cast<float>(i);
  }
  datasets::GridDataset dataset(data, steps_per_day);
  dataset.SetPeriodicalRepresentation(lc, lp, lt);

  int64_t first = lc;
  if (lp > 0) first = std::max<int64_t>(first, lp * steps_per_day);
  if (lt > 0) first = std::max<int64_t>(first, lt * 7 * steps_per_day);
  ASSERT_EQ(dataset.Size(), t - first);

  for (int64_t i : {int64_t{0}, dataset.Size() - 1}) {
    data::Sample s = dataset.Get(i);
    const float target = static_cast<float>(first + i);
    EXPECT_EQ(s.y.flat(0), target);
    // Closeness stack: most recent frame is target - 1.
    EXPECT_EQ(s.x.flat((lc - 1) * 4), target - 1);
    EXPECT_EQ(s.x.flat(0), target - lc);
    size_t extra = 0;
    if (lp > 0) {
      EXPECT_EQ(s.extras[extra].flat(0), target - lp * steps_per_day);
      ++extra;
    }
    if (lt > 0) {
      EXPECT_EQ(s.extras[extra].flat(0), target - lt * 7 * steps_per_day);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PeriodicalSweep,
                         ::testing::Values(GridRepParams{40, 1, 0, 0},
                                           GridRepParams{40, 3, 0, 0},
                                           GridRepParams{40, 2, 1, 0},
                                           GridRepParams{40, 2, 2, 1},
                                           GridRepParams{70, 4, 3, 2},
                                           GridRepParams{120, 3, 4, 4}));

// --- Spatial join strategies agree on random workloads --------------------

using JoinParams = std::tuple<int, int, int>;  // (grid_x, grid_y, points)

class JoinSweep : public ::testing::TestWithParam<JoinParams> {};

TEST_P(JoinSweep, AllStrategiesAgree) {
  auto [gx, gy, n] = GetParam();
  Rng rng(gx * 7 + gy * 3 + n);
  spatial::GridPartitioner grid(spatial::Envelope(-10, -5, 10, 5), gx, gy);
  std::vector<spatial::Polygon> cells = grid.CellPolygons();
  std::vector<spatial::Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(-9.99, 9.99), rng.Uniform(-4.99, 4.99)});
  }
  auto hash = spatial::PointInPolygonJoin(points, cells,
                                          spatial::JoinStrategy::kGridHash,
                                          &grid);
  auto tree = spatial::PointInPolygonJoin(points, cells,
                                          spatial::JoinStrategy::kStrTree);
  ASSERT_EQ(hash.size(), points.size());
  ASSERT_EQ(tree.size(), points.size());
  std::map<int64_t, int64_t> hash_map;
  for (const auto& p : hash) hash_map[p.point_idx] = p.polygon_idx;
  for (const auto& p : tree) {
    EXPECT_EQ(hash_map[p.point_idx], p.polygon_idx);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, JoinSweep,
                         ::testing::Values(JoinParams{1, 1, 50},
                                           JoinParams{2, 3, 100},
                                           JoinParams{8, 8, 200},
                                           JoinParams{16, 4, 200},
                                           JoinParams{5, 20, 150}));

// --- Parallel join is row-for-row identical to serial ---------------------
// The probe-side fan-out uses per-chunk buffers concatenated in chunk
// order, so for any partition (pool) size the output must equal the
// serial join exactly — including the degenerate inputs.

using ParallelJoinParams = std::tuple<int, spatial::JoinStrategy>;
// (pool threads a.k.a. probe partitions, strategy)

class ParallelJoinSweep
    : public ::testing::TestWithParam<ParallelJoinParams> {};

TEST_P(ParallelJoinSweep, ParallelOutputIdenticalToSerial) {
  auto [threads, strategy] = GetParam();
  spatial::GridPartitioner grid(spatial::Envelope(0, 0, 8, 8), 4, 4);
  std::vector<spatial::Polygon> cells = grid.CellPolygons();
  ThreadPool pool(threads);

  Rng rng(threads * 31 + static_cast<int>(strategy));
  std::vector<std::pair<const char*, std::vector<spatial::Point>>> inputs;
  std::vector<spatial::Point> random_points;
  for (int i = 0; i < 500; ++i) {
    random_points.push_back(
        {rng.Uniform(0.01, 7.99), rng.Uniform(0.01, 7.99)});
  }
  inputs.emplace_back("random", std::move(random_points));
  inputs.emplace_back("empty", std::vector<spatial::Point>{});
  std::vector<spatial::Point> outside;
  for (int i = 0; i < 64; ++i) {
    outside.push_back({rng.Uniform(20, 30), rng.Uniform(20, 30)});
  }
  inputs.emplace_back("zero_matches", std::move(outside));
  inputs.emplace_back("single_row",
                      std::vector<spatial::Point>{{1.5, 1.5}});
  std::vector<spatial::Point> one_cell;
  for (int i = 0; i < 200; ++i) {
    one_cell.push_back({rng.Uniform(0.01, 1.99), rng.Uniform(0.01, 1.99)});
  }
  inputs.emplace_back("all_in_one_cell", std::move(one_cell));

  for (const auto& [label, points] : inputs) {
    spatial::JoinOptions opts;
    opts.strategy = strategy;
    opts.pool = &pool;
    const auto serial = [&] {
      DeviceGuard guard(Device::kSerial);
      return spatial::PointInPolygonJoin(points, cells, opts, &grid);
    }();
    auto parallel = spatial::PointInPolygonJoin(points, cells, opts, &grid);
    ASSERT_EQ(serial.size(), parallel.size()) << label;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].point_idx, parallel[i].point_idx)
          << label << " row " << i;
      EXPECT_EQ(serial[i].polygon_idx, parallel[i].polygon_idx)
          << label << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionsByStrategy, ParallelJoinSweep,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(spatial::JoinStrategy::kStrTree,
                                         spatial::JoinStrategy::kGridHash)));

// --- GroupBy against a fold in the documented accumulation order -------
//
// GroupByAgg folds each key's rows in partition order, then folds the
// per-partition partials in partition index order, copying the first
// one. A reference that folds in that same order must agree bitwise,
// -0.0 values included, for keys of any sign and magnitude.

using GroupByParams = std::tuple<int, int64_t, int64_t>;
// (num rows, key cardinality, key offset)

class GroupBySweep : public ::testing::TestWithParam<GroupByParams> {};

struct RefGroup {
  int64_t count = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST_P(GroupBySweep, MatchesManualAggregation) {
  auto [n, cardinality, offset] = GetParam();
  Rng rng(static_cast<uint64_t>(n + cardinality));
  std::vector<int64_t> keys(n);
  std::vector<double> values(n);
  for (int i = 0; i < n; ++i) {
    keys[i] = offset + rng.UniformInt(0, cardinality - 1);
    values[i] = i % 17 == 0 ? -0.0 : rng.Uniform(-1, 1);
  }
  df::DataFrame frame =
      df::DataFrame::FromColumns({{"k", df::Column::FromInt64s(keys)},
                                  {"v", df::Column::FromDoubles(values)}})
          .Repartition(3);

  std::map<int64_t, RefGroup> ref;
  for (int pi = 0; pi < frame.num_partitions(); ++pi) {
    const df::Partition& part = frame.partition(pi);
    df::Partition::Pin pin(part);
    const auto ks = part.column(0).int64s();
    const auto vs = part.column(1).doubles();
    std::map<int64_t, RefGroup> partial;
    for (size_t r = 0; r < ks.size(); ++r) {
      RefGroup& g = partial[ks[r]];
      ++g.count;
      g.sum += vs[r];
      g.sumsq += vs[r] * vs[r];
      g.min = std::min(g.min, vs[r]);
      g.max = std::max(g.max, vs[r]);
    }
    for (const auto& [k, p] : partial) {
      auto [it, first] = ref.try_emplace(k, p);
      if (first) continue;
      RefGroup& g = it->second;
      g.count += p.count;
      g.sum += p.sum;
      g.sumsq += p.sumsq;
      g.min = std::min(g.min, p.min);
      g.max = std::max(g.max, p.max);
    }
  }

  df::DataFrame agg =
      frame
          .GroupByAgg({"k"}, {{df::AggKind::kCount, "", "n"},
                              {df::AggKind::kSum, "v", "s"},
                              {df::AggKind::kMin, "v", "lo"},
                              {df::AggKind::kMax, "v", "hi"},
                              {df::AggKind::kMean, "v", "mean"},
                              {df::AggKind::kVariance, "v", "var"}})
          .SortByInt64("k");
  ASSERT_EQ(agg.NumRows(), static_cast<int64_t>(ref.size()));
  auto out_k = agg.CollectInt64("k");
  auto out_n = agg.CollectInt64("n");
  auto out_s = agg.CollectDouble("s");
  auto out_lo = agg.CollectDouble("lo");
  auto out_hi = agg.CollectDouble("hi");
  auto out_mean = agg.CollectDouble("mean");
  auto out_var = agg.CollectDouble("var");
  for (size_t i = 0; i < out_k.size(); ++i) {
    ASSERT_TRUE(ref.count(out_k[i])) << out_k[i];
    const RefGroup& g = ref[out_k[i]];
    const double count = static_cast<double>(g.count);
    const double mean = g.sum / count;
    const double var = std::max(0.0, g.sumsq / count - mean * mean);
    EXPECT_EQ(out_n[i], g.count) << out_k[i];
    EXPECT_EQ(Bits(out_s[i]), Bits(g.sum)) << out_k[i];
    EXPECT_EQ(Bits(out_lo[i]), Bits(g.min)) << out_k[i];
    EXPECT_EQ(Bits(out_hi[i]), Bits(g.max)) << out_k[i];
    EXPECT_EQ(Bits(out_mean[i]), Bits(mean)) << out_k[i];
    EXPECT_EQ(Bits(out_var[i]), Bits(var)) << out_k[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cardinalities, GroupBySweep,
    ::testing::Values(GroupByParams{100, 5, 0}, GroupByParams{1000, 50, 0},
                      GroupByParams{1000, 900, 0},
                      GroupByParams{500, 20, int64_t{1} << 40},
                      GroupByParams{2000, 2000, int64_t{1} << 40},
                      GroupByParams{2000, 1000, -500},
                      GroupByParams{500, 20, -(int64_t{1} << 40)}));

// --- GroupBy across partitionings, shard counts and the partial cap ----
//
// Phase 1 pre-aggregates each (partition, shard)'s first
// kGroupByPartialCap keys and sends every later row raw, so a key can
// have pre-aggregated rows and raw rows in one partition. The output
// must not show the split: each shard lists its groups in first-seen
// (partition-major row) order, with values equal bitwise to a reference
// that folds each key's rows in row order into one partial per
// partition and folds the partials in partition order, copying the
// first.

enum class Cardinality { kBelowCap, kAboveCap, kMixed };
using GroupByLayoutParams = std::tuple<int, int, Cardinality>;
// (input partitions, shards, cardinality regime)

class GroupByLayoutSweep
    : public ::testing::TestWithParam<GroupByLayoutParams> {};

struct LayoutKey {
  int64_t a;
  int64_t b;
  auto operator<=>(const LayoutKey&) const = default;
};

uint64_t LayoutHash(const LayoutKey& key) {
  const int64_t words[2] = {key.a, key.b};
  return df::GroupKeyHash(words, 2);
}

// A frame of keys (a, b) and values v (double, -0.0 every 17th row) and
// w (int64). Each partition p overflows the pre-aggregation table of
// shard p % shards in the kAboveCap and kMixed regimes; background keys
// spread over every shard stay far below the cap.
df::DataFrame LayoutFrame(int partitions, int shards, Cardinality regime) {
  const size_t cap = df::kGroupByPartialCap;
  const size_t pool_size = cap + 8 * 211 + 400;
  // Distinct keys per shard, found by hashing candidates; keys of every
  // sign and magnitude.
  std::vector<std::vector<LayoutKey>> pool(shards);
  size_t filled = 0;
  for (int64_t i = 0; filled < static_cast<size_t>(shards); ++i) {
    const LayoutKey key{(i % 3 == 0 ? -1 : 1) * (i * 7919) % 100003,
                        (i << 20) - 12345};
    auto& keys = pool[LayoutHash(key) % shards];
    if (keys.size() == pool_size) continue;
    keys.push_back(key);
    if (keys.size() == pool_size) ++filled;
  }
  std::vector<LayoutKey> background;
  for (int64_t i = 0; i < 150; ++i) {
    background.push_back({-(int64_t{1} << 40) - i, i % 5});
  }

  Rng rng(static_cast<uint64_t>(partitions * 100 + shards * 7 +
                                static_cast<int>(regime)));
  std::vector<std::shared_ptr<const df::Partition>> parts;
  int64_t row_id = 0;
  for (int p = 0; p < partitions; ++p) {
    const std::vector<LayoutKey>& target = pool[p % shards];
    std::vector<LayoutKey> rows;
    const auto some_background = [&] {
      return background[rng.UniformInt(0, background.size() - 1)];
    };
    switch (regime) {
      case Cardinality::kBelowCap:
        for (int i = 0; i < 600; ++i) rows.push_back(some_background());
        break;
      case Cardinality::kAboveCap:
        // Near-unique keys, overlapping between partitions.
        for (size_t i = 0; i < cap + 300; ++i) {
          rows.push_back(target[p * 211 + i]);
          if (i % 9 == 0) rows.push_back(some_background());
        }
        break;
      case Cardinality::kMixed: {
        // Early keys fill the table almost; fill keys cross the cap;
        // late rows revisit both, so many keys get pre-aggregated rows
        // first and raw rows after.
        const size_t early = cap - 50;
        for (size_t i = 0; i < early + 120; ++i) {
          rows.push_back(target[p * 97 + i]);
          if (i % 13 == 0) rows.push_back(some_background());
        }
        for (int i = 0; i < 900; ++i) {
          const int pick = rng.UniformInt(0, 9);
          if (pick < 6) {
            rows.push_back(target[p * 97 + rng.UniformInt(0, early + 119)]);
          } else if (pick < 8) {
            rows.push_back(some_background());
          } else {
            rows.push_back(target[p * 97 + early + 120 + i]);
          }
        }
        break;
      }
    }
    std::vector<int64_t> as, bs, ws;
    std::vector<double> vs;
    for (const LayoutKey& key : rows) {
      as.push_back(key.a);
      bs.push_back(key.b);
      vs.push_back(row_id % 17 == 0 ? -0.0 : rng.Uniform(-1, 1));
      ws.push_back(rng.UniformInt(-1000, 1000));
      ++row_id;
    }
    std::vector<df::Column> cols;
    cols.push_back(df::Column::FromInt64s(std::move(as)));
    cols.push_back(df::Column::FromInt64s(std::move(bs)));
    cols.push_back(df::Column::FromDoubles(std::move(vs)));
    cols.push_back(df::Column::FromInt64s(std::move(ws)));
    parts.push_back(std::make_shared<df::Partition>(std::move(cols)));
  }
  auto schema = std::make_shared<df::Schema>(
      std::vector<std::pair<std::string, df::DataType>>{
          {"a", df::DataType::kInt64},
          {"b", df::DataType::kInt64},
          {"v", df::DataType::kDouble},
          {"w", df::DataType::kInt64}});
  return df::DataFrame::FromPartitions(schema, std::move(parts));
}

const std::vector<df::AggSpec>& LayoutAggs() {
  static const std::vector<df::AggSpec> aggs = {
      {df::AggKind::kCount, "", "n"},
      {df::AggKind::kSum, "v", "s"},
      {df::AggKind::kMin, "v", "lo"},
      {df::AggKind::kMax, "v", "hi"},
      {df::AggKind::kMean, "v", "mean"},
      {df::AggKind::kVariance, "v", "var"},
      {df::AggKind::kStdDev, "w", "w_sd"},
      {df::AggKind::kMax, "w", "w_hi"},
      {df::AggKind::kSum, "w", "w_sum"}};
  return aggs;
}

struct LayoutGroup {
  RefGroup v;
  RefGroup w;
};

// Every key's groups in the documented accumulation order, and the keys
// in first-seen (partition-major row) order.
void ReferenceFold(const df::DataFrame& frame,
                   std::map<LayoutKey, LayoutGroup>* groups,
                   std::vector<LayoutKey>* first_seen) {
  const auto add = [](RefGroup& g, double x) {
    ++g.count;
    g.sum += x;
    g.sumsq += x * x;
    g.min = std::min(g.min, x);
    g.max = std::max(g.max, x);
  };
  const auto fold = [](RefGroup& total, const RefGroup& p) {
    total.count += p.count;
    total.sum += p.sum;
    total.sumsq += p.sumsq;
    total.min = std::min(total.min, p.min);
    total.max = std::max(total.max, p.max);
  };
  std::set<LayoutKey> seen;
  for (int pi = 0; pi < frame.num_partitions(); ++pi) {
    const df::Partition& part = frame.partition(pi);
    df::Partition::Pin pin(part);
    std::map<LayoutKey, LayoutGroup> partial;
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      const LayoutKey key{part.column(0).int64s()[r],
                          part.column(1).int64s()[r]};
      LayoutGroup& g = partial[key];
      add(g.v, part.column(2).doubles()[r]);
      add(g.w, static_cast<double>(part.column(3).int64s()[r]));
      if (seen.insert(key).second) first_seen->push_back(key);
    }
    for (const auto& [key, p] : partial) {
      auto [it, first] = groups->try_emplace(key, p);
      if (first) continue;
      fold(it->second.v, p.v);
      fold(it->second.w, p.w);
    }
  }
}

TEST_P(GroupByLayoutSweep, MatchesReferenceFoldBitwise) {
  const auto [partitions, shards, regime] = GetParam();
  const df::DataFrame frame = LayoutFrame(partitions, shards, regime);
  std::map<LayoutKey, LayoutGroup> ref;
  std::vector<LayoutKey> first_seen;
  ReferenceFold(frame, &ref, &first_seen);

  // The regime does what it says: rows go raw exactly when some table
  // overflows.
  const bool obs_was_on = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* raw_rows = obs::GetCounter("df.groupby.raw_rows");
  const int64_t raw_before = raw_rows->value();
  const df::DataFrame agg = frame.GroupByAgg({"a", "b"}, LayoutAggs(), shards);
  const int64_t raw = raw_rows->value() - raw_before;
  obs::SetEnabled(obs_was_on);
  if (regime == Cardinality::kBelowCap) {
    EXPECT_EQ(raw, 0);
  } else {
    EXPECT_GT(raw, 0);
  }
  ASSERT_EQ(agg.num_partitions(), shards);
  ASSERT_EQ(agg.NumRows(), static_cast<int64_t>(ref.size()));
  for (int pi = 0; pi < shards; ++pi) {
    const df::Partition& part = agg.partition(pi);
    df::Partition::Pin pin(part);
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      const LayoutKey key{part.column(0).int64s()[r],
                          part.column(1).int64s()[r]};
      ASSERT_TRUE(ref.count(key)) << key.a << "," << key.b;
      const RefGroup& v = ref[key].v;
      const RefGroup& w = ref[key].w;
      const double n = static_cast<double>(v.count);
      const double mean = v.sum / n;
      const double var = std::max(0.0, v.sumsq / n - mean * mean);
      const double w_mean = w.sum / n;
      const double w_sd =
          std::sqrt(std::max(0.0, w.sumsq / n - w_mean * w_mean));
      SCOPED_TRACE(::testing::Message() << "key " << key.a << "," << key.b);
      EXPECT_EQ(part.column(2).int64s()[r], v.count);
      EXPECT_EQ(Bits(part.column(3).doubles()[r]), Bits(v.sum));
      EXPECT_EQ(Bits(part.column(4).doubles()[r]), Bits(v.min));
      EXPECT_EQ(Bits(part.column(5).doubles()[r]), Bits(v.max));
      EXPECT_EQ(Bits(part.column(6).doubles()[r]), Bits(mean));
      EXPECT_EQ(Bits(part.column(7).doubles()[r]), Bits(var));
      EXPECT_EQ(Bits(part.column(8).doubles()[r]), Bits(w_sd));
      EXPECT_EQ(Bits(part.column(9).doubles()[r]), Bits(w.max));
      EXPECT_EQ(Bits(part.column(10).doubles()[r]), Bits(w.sum));
    }
  }
}

TEST_P(GroupByLayoutSweep, ListsKeysInFirstSeenOrder) {
  const auto [partitions, shards, regime] = GetParam();
  const df::DataFrame frame = LayoutFrame(partitions, shards, regime);
  std::map<LayoutKey, LayoutGroup> ref;
  std::vector<LayoutKey> first_seen;
  ReferenceFold(frame, &ref, &first_seen);
  // Each shard's keys, in global first-seen order.
  std::vector<std::vector<LayoutKey>> want(shards);
  for (const LayoutKey& key : first_seen) {
    want[LayoutHash(key) % shards].push_back(key);
  }

  const df::DataFrame agg =
      frame.GroupByAgg({"a", "b"}, {{df::AggKind::kCount, "", "n"}}, shards);
  ASSERT_EQ(agg.num_partitions(), shards);
  for (int pi = 0; pi < shards; ++pi) {
    const df::Partition& part = agg.partition(pi);
    df::Partition::Pin pin(part);
    std::vector<LayoutKey> got;
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      got.push_back({part.column(0).int64s()[r], part.column(1).int64s()[r]});
    }
    EXPECT_TRUE(got == want[pi]) << "shard " << pi << ": " << got.size()
                                 << " keys, want " << want[pi].size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionsShardsCardinality, GroupByLayoutSweep,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(1, 3, 8, 64),
                       ::testing::Values(Cardinality::kBelowCap,
                                         Cardinality::kAboveCap,
                                         Cardinality::kMixed)));

// --- STR-tree across node capacities ---------------------------------------

class StrTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(StrTreeSweep, QueryMatchesBruteForceAtEveryCapacity) {
  const int capacity = GetParam();
  Rng rng(capacity);
  std::vector<spatial::StrTree::Entry> entries;
  for (int64_t i = 0; i < 150; ++i) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    entries.push_back({spatial::Envelope(x, y, x + rng.Uniform(0, 3),
                                         y + rng.Uniform(0, 3)),
                       i});
  }
  spatial::StrTree tree(entries, capacity);
  for (int q = 0; q < 10; ++q) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    spatial::Envelope query(x, y, x + 8, y + 8);
    auto got = tree.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (const auto& e : entries) {
      if (e.envelope.Intersects(query)) want.push_back(e.id);
    }
    EXPECT_EQ(got, want) << "capacity " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StrTreeSweep,
                         ::testing::Values(2, 3, 4, 10, 50, 200));

// --- Pooling / upsample adjointness ---------------------------------------
// <down(x), y> == <x, up(y)> must hold for adjoint pairs — the property
// the autograd backward passes rely on.

TEST(AdjointProperty, UpsampleAndItsBackwardAreAdjoint) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    ts::Tensor x = ts::Tensor::Randn({2, 3, 4, 4}, rng);
    ts::Tensor y = ts::Tensor::Randn({2, 3, 8, 8}, rng);
    const float lhs = ts::SumAll(ts::Mul(ts::UpsampleNearest2x(x), y));
    const float rhs =
        ts::SumAll(ts::Mul(x, ts::UpsampleNearest2xBackward(y)));
    EXPECT_NEAR(lhs, rhs, 1e-3f);
  }
}

TEST(AdjointProperty, Im2ColAndCol2ImAreAdjoint) {
  Rng rng(10);
  ts::ConvSpec spec{.stride = 2, .padding = 1};
  ts::Tensor x = ts::Tensor::Randn({1, 2, 6, 6}, rng);
  ts::Tensor cols = ts::Im2Col(x, 0, 3, 3, spec);
  ts::Tensor y = ts::Tensor::Randn(cols.shape(), rng);
  const float lhs = ts::SumAll(ts::Mul(cols, y));
  ts::Tensor back = ts::Tensor::Zeros({1, 2, 6, 6});
  ts::Col2ImAdd(y, back, 0, 3, 3, spec);
  const float rhs = ts::SumAll(ts::Mul(x, back));
  EXPECT_NEAR(lhs, rhs, 1e-3f);
}

}  // namespace
}  // namespace geotorch
