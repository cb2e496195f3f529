#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/check.h"
#include "core/thread_pool.h"
#include "tensor/gemm.h"

namespace geotorch::tensor {
namespace {

// Work of one elementwise element for the pool's fan-out rule, in GEMM
// multiply-adds (DESIGN.md §5): the old 1 << 15-element threshold then
// weighs 1 << 18, the old GEMM one.
constexpr int64_t kElementWork = 8;

// Aligned (right-justified) strides of `shape` against a broadcast result
// of rank `rank`; broadcast dimensions get stride 0.
std::vector<int64_t> BroadcastStrides(const Shape& shape, size_t rank) {
  std::vector<int64_t> strides(rank, 0);
  std::vector<int64_t> natural = ContiguousStrides(shape);
  const size_t offset = rank - shape.size();
  for (size_t i = 0; i < shape.size(); ++i) {
    strides[offset + i] = (shape[i] == 1) ? 0 : natural[i];
  }
  return strides;
}

template <typename BinaryFn>
Tensor BinaryBroadcastOp(const Tensor& a, const Tensor& b, BinaryFn fn) {
  if (SameShape(a.shape(), b.shape())) {
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const auto range = [&](int64_t begin, int64_t end) {
      const BinaryFn f = fn;  // local copy: po stores cannot alias it
      for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i], pb[i]);
    };
    ThreadPool::Global().ParallelForRange(a.numel(), range, kElementWork);
    return out;
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  const size_t rank = out_shape.size();
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), rank);
  const std::vector<int64_t> sb = BroadcastStrides(b.shape(), rank);
  const std::vector<int64_t> so = ContiguousStrides(out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = out.numel();
  const auto range = [&](int64_t begin, int64_t end) {
    std::vector<int64_t> index(rank, 0);
    // Decompose `begin` into a multi-index once, then iterate.
    int64_t rem = begin;
    for (size_t d = 0; d < rank; ++d) {
      index[d] = rem / so[d];
      rem %= so[d];
    }
    int64_t ia = 0;
    int64_t ib = 0;
    for (size_t d = 0; d < rank; ++d) {
      ia += index[d] * sa[d];
      ib += index[d] * sb[d];
    }
    for (int64_t i = begin; i < end; ++i) {
      po[i] = fn(pa[ia], pb[ib]);
      // Advance the multi-index (odometer).
      for (int d = static_cast<int>(rank) - 1; d >= 0; --d) {
        ++index[d];
        ia += sa[d];
        ib += sb[d];
        if (index[d] < out_shape[d]) break;
        index[d] = 0;
        ia -= sa[d] * out_shape[d];
        ib -= sb[d] * out_shape[d];
      }
    }
  };
  ThreadPool::Global().ParallelForRange(n, range, kElementWork);
  return out;
}

template <typename UnaryFn>
Tensor UnaryOp(const Tensor& a, UnaryFn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const auto range = [&](int64_t begin, int64_t end) {
    const UnaryFn f = fn;  // local copy: po stores cannot alias it
    for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i]);
  };
  ThreadPool::Global().ParallelForRange(a.numel(), range, kElementWork);
  return out;
}

int NormalizeDim(int dim, int rank) {
  if (dim < 0) dim += rank;
  GEO_CHECK(dim >= 0 && dim < rank) << "dim " << dim << " for rank " << rank;
  return dim;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryBroadcastOp(a, b,
                           [](float x, float y) { return std::max(x, y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}
Tensor PowScalar(const Tensor& a, float p) {
  return UnaryOp(a, [p](float x) { return std::pow(x, p); });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(x); });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor LeakyRelu(const Tensor& a, float slope) {
  return UnaryOp(a, [slope](float x) { return x > 0.0f ? x : slope * x; });
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  return UnaryOp(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}
Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) po[i] = fn(pa[i]);
  return out;
}

namespace {

// Shared driver for the binary in-place kernels: pd[i] = fn(pd[i], ps[i]).
template <typename BinaryFn>
void BinaryInPlace(Tensor& a, const Tensor& b, const char* name, BinaryFn fn) {
  GEO_CHECK(SameShape(a.shape(), b.shape()))
      << name << " " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
  float* pd = a.data();
  const float* ps = b.data();
  const auto range = [&](int64_t begin, int64_t end) {
    // A local copy of fn (and of any scalar it captures, e.g. a slope):
    // read through the outer capture it could alias the pd stores, and
    // the loop would not vectorize.
    const BinaryFn f = fn;
    for (int64_t i = begin; i < end; ++i) pd[i] = f(pd[i], ps[i]);
  };
  ThreadPool::Global().ParallelForRange(a.numel(), range, kElementWork);
}

}  // namespace

void MulInPlace(Tensor& a, const Tensor& b) {
  BinaryInPlace(a, b, "MulInPlace", [](float x, float y) { return x * y; });
}

void NegInPlace(Tensor& a) {
  float* pd = a.data();
  const auto range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) pd[i] = -pd[i];
  };
  ThreadPool::Global().ParallelForRange(a.numel(), range, kElementWork);
}

void AddScaledInPlace(Tensor& a, const Tensor& b, float s) {
  BinaryInPlace(a, b, "AddScaledInPlace",
                [s](float x, float y) { return x + s * y; });
}

void ReluMaskInPlace(Tensor& g, const Tensor& x, float slope) {
  BinaryInPlace(g, x, "ReluMaskInPlace",
                [slope](float gv, float xv) {
                  return xv > 0.0f ? gv : slope * gv;
                });
}

void SigmoidGradInPlace(Tensor& g, const Tensor& y) {
  BinaryInPlace(g, y, "SigmoidGradInPlace",
                [](float gv, float yv) { return gv * yv * (1.0f - yv); });
}

void TanhGradInPlace(Tensor& g, const Tensor& y) {
  BinaryInPlace(g, y, "TanhGradInPlace",
                [](float gv, float yv) { return gv * (1.0f - yv * yv); });
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  if (SameShape(a.shape(), shape)) return a;
  GEO_CHECK(BroadcastableTo(a.shape(), shape))
      << "BroadcastTo " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(shape);
  Tensor out = Tensor::Uninitialized(shape);
  const size_t rank = shape.size();
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), rank);
  const std::vector<int64_t> so = ContiguousStrides(shape);
  const float* pa = a.data();
  float* po = out.data();
  const auto range = [&](int64_t begin, int64_t end) {
    std::vector<int64_t> index(rank, 0);
    int64_t rem = begin;
    for (size_t d = 0; d < rank; ++d) {
      index[d] = rem / so[d];
      rem %= so[d];
    }
    int64_t ia = 0;
    for (size_t d = 0; d < rank; ++d) ia += index[d] * sa[d];
    for (int64_t i = begin; i < end; ++i) {
      po[i] = pa[ia];
      for (int d = static_cast<int>(rank) - 1; d >= 0; --d) {
        ++index[d];
        ia += sa[d];
        if (index[d] < shape[d]) break;
        index[d] = 0;
        ia -= sa[d] * shape[d];
      }
    }
  };
  ThreadPool::Global().ParallelForRange(out.numel(), range, kElementWork);
  return out;
}

float SumAll(const Tensor& a) {
  // Kahan summation keeps large reductions accurate in float32.
  double sum = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) sum += p[i];
  return static_cast<float>(sum);
}

float MeanAll(const Tensor& a) {
  GEO_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<float>(a.numel());
}

float MaxAll(const Tensor& a) {
  GEO_CHECK_GT(a.numel(), 0);
  return *std::max_element(a.data(), a.data() + a.numel());
}

float MinAll(const Tensor& a) {
  GEO_CHECK_GT(a.numel(), 0);
  return *std::min_element(a.data(), a.data() + a.numel());
}

Tensor Sum(const Tensor& a, int dim, bool keepdim) {
  dim = NormalizeDim(dim, a.ndim());
  const Shape& in_shape = a.shape();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < dim; ++d) outer *= in_shape[d];
  for (int d = dim + 1; d < a.ndim(); ++d) inner *= in_shape[d];
  const int64_t reduce = in_shape[dim];

  Shape out_shape = in_shape;
  if (keepdim) {
    out_shape[dim] = 1;
  } else {
    out_shape.erase(out_shape.begin() + dim);
    if (out_shape.empty()) out_shape = {1};
  }
  Tensor out = Tensor::Zeros(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t r = 0; r < reduce; ++r) {
      const float* src = pa + (o * reduce + r) * inner;
      float* dst = po + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int dim, bool keepdim) {
  dim = NormalizeDim(dim, a.ndim());
  Tensor s = Sum(a, dim, keepdim);
  s.ScaleInPlace(1.0f / static_cast<float>(a.shape()[dim]));
  return s;
}

Tensor SumToShape(Tensor a, const Shape& target) {
  if (SameShape(a.shape(), target)) return a;
  GEO_CHECK(BroadcastableTo(target, a.shape()))
      << "SumToShape " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(target);
  Tensor cur = std::move(a);
  // Collapse extra leading dims.
  while (cur.ndim() > static_cast<int>(target.size())) {
    cur = Sum(cur, 0, /*keepdim=*/false);
    if (cur.ndim() == 1 && target.empty()) break;
  }
  // Now same rank (or target had rank >= 1); reduce dims where target is 1.
  for (int d = 0; d < cur.ndim(); ++d) {
    if (d < static_cast<int>(target.size()) && target[d] == 1 &&
        cur.shape()[d] != 1) {
      cur = Sum(cur, d, /*keepdim=*/true);
    }
  }
  return cur.Reshape(target);
}

Tensor Argmax(const Tensor& a, int dim) {
  dim = NormalizeDim(dim, a.ndim());
  const Shape& in_shape = a.shape();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < dim; ++d) outer *= in_shape[d];
  for (int d = dim + 1; d < a.ndim(); ++d) inner *= in_shape[d];
  const int64_t reduce = in_shape[dim];
  GEO_CHECK_GT(reduce, 0);

  Shape out_shape = in_shape;
  out_shape.erase(out_shape.begin() + dim);
  if (out_shape.empty()) out_shape = {1};
  Tensor out = Tensor::Zeros(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      float best = pa[o * reduce * inner + i];
      int64_t best_r = 0;
      for (int64_t r = 1; r < reduce; ++r) {
        const float v = pa[(o * reduce + r) * inner + i];
        if (v > best) {
          best = v;
          best_r = r;
        }
      }
      po[o * inner + i] = static_cast<float>(best_r);
    }
  }
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMulT(a, b, /*trans_a=*/false, /*trans_b=*/false);
}

Tensor MatMulT(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  GEO_CHECK_EQ(a.ndim(), 2);
  GEO_CHECK_EQ(b.ndim(), 2);
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t k = trans_a ? a.size(0) : a.size(1);
  GEO_CHECK_EQ(trans_b ? b.size(1) : b.size(0), k)
      << "MatMul " << ShapeToString(a.shape()) << (trans_a ? "^T" : "")
      << " x " << ShapeToString(b.shape()) << (trans_b ? "^T" : "");
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  Tensor out = Tensor::Uninitialized({m, n});
  Gemm(a.data(), b.data(), out.data(), m, k, n,
       {.beta = 0.0f, .trans_a = trans_a, .trans_b = trans_b});
  return out;
}

Tensor Transpose2d(const Tensor& a) {
  GEO_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.size(0);
  const int64_t n = a.size(1);
  Tensor out = Tensor::Uninitialized({n, m});
  const float* pa = a.data();
  float* po = out.data();
  // Tiled so both the row-major read and the column-major write stay
  // within a cache-resident 32×32 block.
  constexpr int64_t kTile = 32;
  for (int64_t ib = 0; ib < m; ib += kTile) {
    const int64_t ie = std::min(m, ib + kTile);
    for (int64_t jb = 0; jb < n; jb += kTile) {
      const int64_t je = std::min(n, jb + kTile);
      for (int64_t i = ib; i < ie; ++i) {
        for (int64_t j = jb; j < je; ++j) po[j * m + i] = pa[i * n + j];
      }
    }
  }
  return out;
}

Tensor Permute(const Tensor& a, const std::vector<int>& perm) {
  GEO_CHECK_EQ(static_cast<int>(perm.size()), a.ndim());
  const int rank = a.ndim();
  Shape out_shape(rank);
  for (int d = 0; d < rank; ++d) out_shape[d] = a.shape()[perm[d]];
  Tensor out = Tensor::Uninitialized(out_shape);
  const std::vector<int64_t> in_strides = ContiguousStrides(a.shape());
  const std::vector<int64_t> out_strides = ContiguousStrides(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  std::vector<int64_t> out_index(rank, 0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t src = 0;
    for (int d = 0; d < rank; ++d) src += out_index[d] * in_strides[perm[d]];
    po[i] = pa[src];
    for (int d = rank - 1; d >= 0; --d) {
      if (++out_index[d] < out_shape[d]) break;
      out_index[d] = 0;
    }
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int dim) {
  GEO_CHECK(!parts.empty());
  const int rank = parts[0].ndim();
  dim = NormalizeDim(dim, rank);
  Shape out_shape = parts[0].shape();
  int64_t total = 0;
  for (const Tensor& t : parts) {
    GEO_CHECK_EQ(t.ndim(), rank);
    for (int d = 0; d < rank; ++d) {
      if (d != dim) {
        GEO_CHECK_EQ(t.shape()[d], out_shape[d])
            << "Concat shape mismatch on dim " << d;
      }
    }
    total += t.shape()[dim];
  }
  out_shape[dim] = total;
  Tensor out = Tensor::Uninitialized(out_shape);

  int64_t outer = 1;
  for (int d = 0; d < dim; ++d) outer *= out_shape[d];
  int64_t inner = 1;
  for (int d = dim + 1; d < rank; ++d) inner *= out_shape[d];

  float* po = out.data();
  const int64_t out_row = total * inner;
  int64_t dim_offset = 0;
  for (const Tensor& t : parts) {
    const int64_t td = t.shape()[dim];
    const float* pt = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + o * out_row + dim_offset * inner,
                  pt + o * td * inner, sizeof(float) * td * inner);
    }
    dim_offset += td;
  }
  return out;
}

Tensor Slice(const Tensor& a, int dim, int64_t start, int64_t end) {
  dim = NormalizeDim(dim, a.ndim());
  GEO_CHECK(start >= 0 && start <= end && end <= a.shape()[dim])
      << "Slice [" << start << ", " << end << ") on dim of size "
      << a.shape()[dim];
  Shape out_shape = a.shape();
  out_shape[dim] = end - start;
  Tensor out = Tensor::Uninitialized(out_shape);

  int64_t outer = 1;
  for (int d = 0; d < dim; ++d) outer *= a.shape()[d];
  int64_t inner = 1;
  for (int d = dim + 1; d < a.ndim(); ++d) inner *= a.shape()[d];
  const int64_t in_dim = a.shape()[dim];
  const int64_t out_dim = end - start;

  if (out_dim * inner == 0) return out;  // empty: data() may be null
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * out_dim * inner,
                pa + (o * in_dim + start) * inner,
                sizeof(float) * out_dim * inner);
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  GEO_CHECK(!parts.empty());
  Shape item_shape = parts[0].shape();
  Shape out_shape;
  out_shape.push_back(static_cast<int64_t>(parts.size()));
  out_shape.insert(out_shape.end(), item_shape.begin(), item_shape.end());
  Tensor out = Tensor::Uninitialized(out_shape);
  float* po = out.data();
  const int64_t item_numel = parts[0].numel();
  for (size_t i = 0; i < parts.size(); ++i) {
    GEO_CHECK(SameShape(parts[i].shape(), item_shape))
        << "Stack requires equal shapes";
    std::memcpy(po + i * item_numel, parts[i].data(),
                sizeof(float) * item_numel);
  }
  return out;
}

Tensor Softmax(const Tensor& a, int dim) {
  return Exp(LogSoftmax(a, dim));
}

Tensor LogSoftmax(const Tensor& a, int dim) {
  dim = NormalizeDim(dim, a.ndim());
  const Shape& shape = a.shape();
  int64_t outer = 1;
  int64_t inner = 1;
  for (int d = 0; d < dim; ++d) outer *= shape[d];
  for (int d = dim + 1; d < a.ndim(); ++d) inner *= shape[d];
  const int64_t c = shape[dim];
  Tensor out = Tensor::Uninitialized(shape);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      const float* src = pa + o * c * inner + i;
      float* dst = po + o * c * inner + i;
      float max_v = src[0];
      for (int64_t k = 1; k < c; ++k) {
        max_v = std::max(max_v, src[k * inner]);
      }
      double sum = 0.0;
      for (int64_t k = 0; k < c; ++k) {
        sum += std::exp(static_cast<double>(src[k * inner] - max_v));
      }
      const float log_z = max_v + static_cast<float>(std::log(sum));
      for (int64_t k = 0; k < c; ++k) {
        dst[k * inner] = src[k * inner] - log_z;
      }
    }
  }
  return out;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!SameShape(a.shape(), b.shape())) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
    if (std::isnan(pa[i]) != std::isnan(pb[i])) return false;
  }
  return true;
}

}  // namespace geotorch::tensor
