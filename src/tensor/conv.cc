#include "tensor/conv.h"

#include "tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/check.h"
#include "core/memory.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"

namespace geotorch::tensor {
namespace {

// Number of sample parts Conv2dBackward splits a batch into for its
// weight/bias gradient sums. A constant, not the pool size, so the sum
// order is the same on every device and host.
constexpr int64_t kConvGradParts = 8;

// Sample and plane loops go to the pool with their multiply-adds as the
// per-item work (DESIGN.md §5). Matmuls issued from inside a loop body
// still go through Gemm(); a call nested in a pool chunk runs serially
// there, so samples spread over the pool and each sample's GEMM runs on
// the thread that took it.

// Output positions o in [lo, hi) whose input tap o*stride + k - padding
// lands inside [0, in). Computed once per kernel tap, so the im2col and
// col2im inner loops run over a known-valid span with no per-element
// bounds branch.
struct TapSpan {
  int64_t lo, hi;
};

TapSpan ValidTaps(int64_t in, int64_t out, int64_t k, const ConvSpec& spec) {
  const int64_t first = spec.padding - k;          // o*stride >= first
  const int64_t last = in - 1 + spec.padding - k;  // o*stride <= last
  if (last < 0) return {0, 0};
  const int64_t lo = first > 0 ? (first + spec.stride - 1) / spec.stride : 0;
  const int64_t hi = std::min(out, last / spec.stride + 1);
  return {std::min(lo, hi), hi};
}

// im2col core writing into caller-provided storage (a reusable
// per-thread workspace in the conv kernels, so no allocation per sample
// per step). `cols` must hold c*kh*kw * oh*ow floats; every element is
// written, the out-of-image taps as zero. Stride-1 rows copy their
// valid span with memcpy.
void Im2ColInto(const Tensor& x, int64_t n, int64_t kh, int64_t kw,
                const ConvSpec& spec, float* cols) {
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  const int64_t oh = ConvOutSize(h, kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(w, kw, spec.stride, spec.padding);
  const int64_t s = spec.stride;
  const float* px = x.data() + n * c * h * w;
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t ki = 0; ki < kh; ++ki) {
      const TapSpan rows = ValidTaps(h, oh, ki, spec);
      for (int64_t kj = 0; kj < kw; ++kj) {
        const TapSpan span = ValidTaps(w, ow, kj, spec);
        const int64_t off = kj - spec.padding;  // src col = oj*s + off
        float* dst = cols + ((ci * kh + ki) * kw + kj) * oh * ow;
        std::fill(dst, dst + rows.lo * ow, 0.0f);
        for (int64_t oi = rows.lo; oi < rows.hi; ++oi) {
          const float* src_row =
              px + (ci * h + oi * s + ki - spec.padding) * w;
          float* dst_row = dst + oi * ow;
          std::fill(dst_row, dst_row + span.lo, 0.0f);
          if (s == 1 && span.hi > span.lo) {
            std::memcpy(dst_row + span.lo, src_row + span.lo + off,
                        sizeof(float) * (span.hi - span.lo));
          } else if (s != 1) {
            for (int64_t oj = span.lo; oj < span.hi; ++oj) {
              dst_row[oj] = src_row[oj * s + off];
            }
          }
          std::fill(dst_row + span.hi, dst_row + ow, 0.0f);
        }
        std::fill(dst + rows.hi * ow, dst + oh * ow, 0.0f);
      }
    }
  }
}

// col2im scatter-add core reading from raw column storage. Same loop
// order as Im2ColInto, so each image element receives its terms in
// (ci, ki, kj, oi, oj) order; at stride 1 the valid span is one
// contiguous += run.
void Col2ImAddRaw(const float* cols, Tensor& out, int64_t n, int64_t kh,
                  int64_t kw, const ConvSpec& spec) {
  const int64_t c = out.size(1);
  const int64_t h = out.size(2);
  const int64_t w = out.size(3);
  const int64_t oh = ConvOutSize(h, kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(w, kw, spec.stride, spec.padding);
  const int64_t s = spec.stride;
  float* po = out.data() + n * c * h * w;
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t ki = 0; ki < kh; ++ki) {
      const TapSpan rows = ValidTaps(h, oh, ki, spec);
      for (int64_t kj = 0; kj < kw; ++kj) {
        const TapSpan span = ValidTaps(w, ow, kj, spec);
        const int64_t off = kj - spec.padding;
        const float* src = cols + ((ci * kh + ki) * kw + kj) * oh * ow;
        for (int64_t oi = rows.lo; oi < rows.hi; ++oi) {
          float* dst_row = po + (ci * h + oi * s + ki - spec.padding) * w;
          const float* src_row = src + oi * ow;
          if (s == 1 && span.hi > span.lo) {
            float* d = dst_row + span.lo + off;
            const float* g = src_row + span.lo;
            for (int64_t j = 0; j < span.hi - span.lo; ++j) d[j] += g[j];
          } else if (s != 1) {
            for (int64_t oj = span.lo; oj < span.hi; ++oj) {
              dst_row[oj * s + off] += src_row[oj];
            }
          }
        }
      }
    }
  }
}

}  // namespace

int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t stride,
                    int64_t padding) {
  const int64_t out = (in + 2 * padding - kernel) / stride + 1;
  GEO_CHECK_GT(out, 0) << "convolution output collapsed: in=" << in
                       << " kernel=" << kernel << " stride=" << stride
                       << " padding=" << padding;
  return out;
}

Tensor Im2Col(const Tensor& x, int64_t n, int64_t kh, int64_t kw,
              const ConvSpec& spec) {
  GEO_CHECK_EQ(x.ndim(), 4);
  const int64_t c = x.size(1);
  const int64_t oh = ConvOutSize(x.size(2), kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(x.size(3), kw, spec.stride, spec.padding);
  Tensor cols = Tensor::Uninitialized({c * kh * kw, oh * ow});
  Im2ColInto(x, n, kh, kw, spec, cols.data());
  return cols;
}

void Col2ImAdd(const Tensor& cols, Tensor& out, int64_t n, int64_t kh,
               int64_t kw, const ConvSpec& spec) {
  GEO_CHECK_EQ(out.ndim(), 4);
  const int64_t c = out.size(1);
  const int64_t oh = ConvOutSize(out.size(2), kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(out.size(3), kw, spec.stride, spec.padding);
  GEO_CHECK_EQ(cols.size(0), c * kh * kw);
  GEO_CHECK_EQ(cols.size(1), oh * ow);
  Col2ImAddRaw(cols.data(), out, n, kh, kw, spec);
}

namespace {

// Shared shape bookkeeping for the conv forwards.
struct ConvDims {
  int64_t n, oh, ow, ck, l;
};

ConvDims ConvCheck(const Tensor& x, int64_t f, int64_t c, int64_t kh,
                   int64_t kw, const Tensor& bias, const ConvSpec& spec) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_EQ(x.size(1), c) << "Conv2d channel mismatch";
  ConvDims d;
  d.n = x.size(0);
  d.oh = ConvOutSize(x.size(2), kh, spec.stride, spec.padding);
  d.ow = ConvOutSize(x.size(3), kw, spec.stride, spec.padding);
  d.ck = c * kh * kw;
  d.l = d.oh * d.ow;
  if (bias.numel() > 0) {
    GEO_CHECK_EQ(bias.numel(), f);
  }
  return d;
}

// True when the patch matrix of sample i IS the (C, H·W) input plane,
// so even the implicit-im2col gather can be skipped.
bool Is1x1Direct(int64_t kh, int64_t kw, const ConvSpec& spec) {
  return kh == 1 && kw == 1 && spec.stride == 1 && spec.padding == 0;
}

// Stride-1 f32 convs always go through GemmConv: past the reference
// threshold it runs the direct im2col-free kernel, which beats both
// materialize+pack and the gather-pack at every depth. For strided
// shapes the implicit gather only beats materialize+pack when the
// patch matrix is shallow (few rows re-reading the same input plane);
// for deep patch matrices the branchy row gather loses to the
// memcpy-based Im2ColInto followed by a contiguous pack. int8 convs
// take the direct kernel (ConvDirectInt8) at every stride.
constexpr int64_t kImplicitGatherMaxK = 64;

template <typename T>
ConvImageView<T> MakeConvView(const T* plane, int64_t c, int64_t h, int64_t w,
                              int64_t kh, int64_t kw, const ConvSpec& spec,
                              int64_t oh, int64_t ow) {
  ConvImageView<T> view;
  view.x = plane;
  view.c = c;
  view.h = h;
  view.w = w;
  view.kh = kh;
  view.kw = kw;
  view.stride = spec.stride;
  view.pad = spec.padding;
  view.oh = oh;
  view.ow = ow;
  return view;
}

}  // namespace

Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     const ConvSpec& spec, EpilogueAct act,
                     float leaky_slope) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_EQ(w.ndim(), 4);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t f = w.size(0);
  GEO_CHECK_EQ(w.size(1), c) << "Conv2d channel mismatch";
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const ConvDims d = ConvCheck(x, f, c, kh, kw, bias, spec);
  GEO_OBS_COUNT("fusion.conv_calls", 1);
  Tensor out = Tensor::Uninitialized({d.n, f, d.oh, d.ow});
  GemmEpilogue ep;
  ep.row_bias = bias.numel() > 0 ? bias.data() : nullptr;
  ep.act = act;
  ep.leaky_slope = leaky_slope;
  const float* pw = w.data();
  const float* px = x.data();
  float* po = out.data();
  const bool direct = Is1x1Direct(kh, kw, spec);
  if (direct) GEO_OBS_COUNT("fusion.conv_1x1", d.n);
  const bool implicit =
      !direct && (spec.stride == 1 || d.ck <= kImplicitGatherMaxK);
  const auto sample = [&](int64_t i) {
    float* out_i = po + i * f * d.l;
    const float* plane = px + i * c * h * wd;
    GemmOptions opts;
    opts.beta = 0.0f;
    opts.epilogue = &ep;
    if (direct) {
      // 1×1 stride-1 unpadded: the input plane is the patch matrix.
      Gemm(pw, plane, out_i, f, c, d.l, opts);
    } else if (implicit) {
      const ConvImageView<float> view =
          MakeConvView(plane, c, h, wd, kh, kw, spec, d.oh, d.ow);
      GemmConv(pw, view, out_i, f, opts);
    } else {
      float* cols = ThreadLocalWorkspace(kWorkspaceIm2Col, d.ck * d.l);
      Im2ColInto(x, i, kh, kw, spec, cols);
      Gemm(pw, cols, out_i, f, d.ck, d.l, opts);
    }
  };
  ThreadPool::Global().ParallelFor(d.n, sample, f * d.ck * d.l);
  return out;
}

Tensor Conv2dForwardInt8(const Tensor& x, const Int8ConvWeights& w,
                         float act_scale, const Tensor& bias,
                         const ConvSpec& spec, EpilogueAct act,
                         float leaky_slope) {
  const ConvDims d = ConvCheck(x, w.f, w.c, w.kh, w.kw, bias, spec);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t plane_size = w.c * h * wd;
  GEO_OBS_COUNT("fusion.conv_calls", 1);
  // Per-tensor activation scale: static (calibrated) when provided,
  // otherwise derived from the whole batch up front — never per sample,
  // so serial and parallel schedules quantize identically.
  if (act_scale <= 0.0f) {
    act_scale = SymmetricScale(AbsMax(x.data(), x.numel()));
  }
  // Each sample quantizes its own input plane into its slice of the
  // caller's buffer, inside the sample loop: elementwise quantization
  // commutes with the im2col gather (and the zero padding quantizes to
  // 0), so this matches quantizing the patch matrix bitwise while
  // touching each input element once. Workers write disjoint slices
  // through the captured pointer.
  int8_t* xq = reinterpret_cast<int8_t*>(
      ThreadLocalWorkspace(kWorkspaceQuant, (x.numel() + 3) / 4));
  Tensor out = Tensor::Uninitialized({d.n, w.f, d.oh, d.ow});
  GemmEpilogue ep;
  ep.row_bias = bias.numel() > 0 ? bias.data() : nullptr;
  ep.act = act;
  ep.leaky_slope = leaky_slope;
  const float* px = x.data();
  float* po = out.data();
  const auto sample = [&](int64_t i) {
    int8_t* plane = xq + i * plane_size;
    QuantizeInt8(px + i * plane_size, plane_size, act_scale, plane);
    const ConvImageView<int8_t> view =
        MakeConvView(plane, w.c, h, wd, w.kh, w.kw, spec, d.oh, d.ow);
    ConvDirectInt8(view, w, act_scale, po + i * w.f * d.l, &ep);
  };
  ThreadPool::Global().ParallelFor(d.n, sample, w.f * d.ck * d.l);
  return out;
}

namespace {

// gb[r] += Σ_j g[r·l + j] for r < rows: one double chain per row in j
// order, run kBiasChains rows side by side so that the chains' add
// latencies overlap. Each chain keeps its own order, so the sums are
// bitwise those of one row at a time.
constexpr int64_t kBiasChains = 8;

void SumRowsInto(const float* g, int64_t rows, int64_t l, float* gb) {
  for (int64_t r0 = 0; r0 < rows; r0 += kBiasChains) {
    const int64_t live = std::min(kBiasChains, rows - r0);
    const float* row[kBiasChains];
    for (int64_t t = 0; t < kBiasChains; ++t) {
      // Chains past the last row repeat it and are discarded.
      row[t] = g + (r0 + std::min(t, live - 1)) * l;
    }
    double s[kBiasChains] = {};
    for (int64_t j = 0; j < l; ++j) {
      for (int64_t t = 0; t < kBiasChains; ++t) s[t] += row[t][j];
    }
    for (int64_t t = 0; t < live; ++t) gb[r0 + t] += static_cast<float>(s[t]);
  }
}

}  // namespace

Conv2dGrads Conv2dBackward(const Tensor& grad_out, const Tensor& x,
                           const Tensor& w, bool has_bias,
                           const ConvSpec& spec, bool need_grad_x) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t f = w.size(0);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t oh = grad_out.size(2);
  const int64_t ow = grad_out.size(3);
  const int64_t ck = c * kh * kw;
  const int64_t l = oh * ow;

  // Stride-1 problems the blocked GEMM would take run the direct
  // backward kernels, which reproduce its values without the patch
  // matrix; smaller ones keep the reference GEMM's rounding through
  // im2col + Gemm + col2im, as do strided convs.
  const bool direct =
      spec.stride == 1 && f * ck * l >= gemm_internal::kBlockedMinWork;

  Conv2dGrads grads;
  if (need_grad_x) {
    // The direct input gradient overwrites each sample's image.
    grads.grad_x =
        direct ? Tensor::Uninitialized(x.shape()) : Tensor::Zeros(x.shape());
  }
  grads.grad_w = Tensor::Zeros(w.shape());
  grads.grad_bias = has_bias ? Tensor::Zeros({f}) : Tensor();

  const float* pg = grad_out.data();
  const float* pw = w.data();
  const float* px = x.data();
  float* pgx = need_grad_x ? grads.grad_x.data() : nullptr;
  const ConvImageView<float> shape =
      MakeConvView(px, c, h, wd, kh, kw, spec, oh, ow);
  Tensor w_packed;
  if (direct && need_grad_x) {
    w_packed = Tensor::Uninitialized({ConvBackwardInputWSize(shape, f)});
    PackConvBackwardInputW(pw, shape, f, w_packed.data());
  }

  // Weight/bias grads are sums over samples, and float addition does
  // not associate, so the summation order must not depend on the
  // device or the pool size. Samples are split into a fixed number of
  // contiguous parts (a function of n alone); each part accumulates its
  // samples in order into its own buffer, and the parts are merged in
  // part order. Serial and parallel runs therefore add the same terms
  // in the same order on any host; only the scheduling of parts
  // differs.
  const int64_t parts = std::min<int64_t>(n, kConvGradParts);
  const int64_t per = parts > 0 ? (n + parts - 1) / parts : 0;
  std::vector<Tensor> gw_parts;
  std::vector<Tensor> gb_parts;
  for (int64_t t = 0; t < parts; ++t) {
    gw_parts.push_back(Tensor::Zeros({f, ck}));
    if (has_bias) gb_parts.push_back(Tensor::Zeros({f}));
  }

  const auto part_grads = [&](int64_t part) {
    float* gw = gw_parts[part].data();
    float* gb = has_bias ? gb_parts[part].data() : nullptr;
    const int64_t end = std::min<int64_t>(n, (part + 1) * per);
    for (int64_t i = part * per; i < end; ++i) {
      const float* g_i = pg + i * f * l;
      if (direct) {
        ConvImageView<float> view = shape;
        view.x = px + i * c * h * wd;
        ConvBackwardWeight(g_i, view, gw, f);
        if (need_grad_x) {
          ConvBackwardInput(w_packed.data(), g_i, view, pgx + i * c * h * wd,
                            f);
        }
      } else {
        // grad wrt weights: gw += g_i (f, l) x cols^T (l, ck). The
        // kernel consumes cols (ck, l) as a transposed operand directly.
        float* cols = ThreadLocalWorkspace(kWorkspaceIm2Col, ck * l);
        Im2ColInto(x, i, kh, kw, spec, cols);
        Gemm(g_i, cols, gw, f, l, ck, {.beta = 1.0f, .trans_b = true});
        if (need_grad_x) {
          // grad wrt input: W^T (ck, f) x g_i (f, l) -> (ck, l), col2im.
          // W (f, ck) is consumed transposed, and beta=0 overwrites the
          // workspace, so neither W^T nor a zeroed buffer is
          // materialized.
          float* gcols = ThreadLocalWorkspace(kWorkspaceConvCols, ck * l);
          Gemm(pw, g_i, gcols, ck, f, l, {.beta = 0.0f, .trans_a = true});
          Col2ImAddRaw(gcols, grads.grad_x, i, kh, kw, spec);
        }
      }
      if (has_bias) SumRowsInto(g_i, f, l, gb);
    }
  };
  ThreadPool::Global().ParallelFor(parts, part_grads, per * f * ck * l);

  for (int64_t t = 0; t < parts; ++t) {
    grads.grad_w.Reshape({f, ck}).AddInPlace(gw_parts[t]);
    if (has_bias) grads.grad_bias.AddInPlace(gb_parts[t]);
  }
  return grads;
}

Tensor ConvTranspose2dForward(const Tensor& x, const Tensor& w,
                              const Tensor& bias, const ConvSpec& spec) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_EQ(w.ndim(), 4);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  GEO_CHECK_EQ(w.size(0), c) << "ConvTranspose2d channel mismatch";
  const int64_t f = w.size(1);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t oh = (h - 1) * spec.stride - 2 * spec.padding + kh;
  const int64_t ow = (wd - 1) * spec.stride - 2 * spec.padding + kw;
  GEO_CHECK(oh > 0 && ow > 0);
  const bool has_bias = bias.numel() > 0;

  const int64_t fk = f * kh * kw;
  Tensor out = Tensor::Zeros({n, f, oh, ow});
  const int64_t l = h * wd;
  const float* px = x.data();
  const float* pw = w.data();
  const auto sample = [&](int64_t i) {
    // cols = W^T (fk, c) x x[i] (c, l); W (c, fk) is consumed
    // transposed in place of the old materialized (fk, c) matrix.
    float* cols = ThreadLocalWorkspace(kWorkspaceConvCols, fk * l);
    Gemm(pw, px + i * c * l, cols, fk, c, l, {.beta = 0.0f, .trans_a = true});
    Col2ImAddRaw(cols, out, i, kh, kw, spec);
  };
  ThreadPool::Global().ParallelFor(n, sample, fk * c * l);
  if (has_bias) {
    GEO_CHECK_EQ(bias.numel(), f);
    float* po = out.data();
    const float* pb = bias.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t fi = 0; fi < f; ++fi) {
        float* plane = po + (i * f + fi) * oh * ow;
        for (int64_t j = 0; j < oh * ow; ++j) plane[j] += pb[fi];
      }
    }
  }
  return out;
}

ConvTranspose2dGrads ConvTranspose2dBackward(const Tensor& grad_out,
                                             const Tensor& x, const Tensor& w,
                                             bool has_bias,
                                             const ConvSpec& spec) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t f = w.size(1);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t l = h * wd;
  const int64_t fk = f * kh * kw;

  ConvTranspose2dGrads grads;
  grads.grad_x = Tensor::Zeros(x.shape());
  grads.grad_w = Tensor::Zeros(w.shape());
  grads.grad_bias = has_bias ? Tensor::Zeros({f}) : Tensor();

  const float* px = x.data();
  const float* pw = w.data();
  float* pgx = grads.grad_x.data();
  float* pgw = grads.grad_w.data();
  float* pgb = has_bias ? grads.grad_bias.data() : nullptr;
  const int64_t gl = grad_out.size(2) * grad_out.size(3);
  // im2col over grad_out must land back on x's spatial extent.
  GEO_CHECK_EQ(
      ConvOutSize(grad_out.size(2), kh, spec.stride, spec.padding), h);
  GEO_CHECK_EQ(
      ConvOutSize(grad_out.size(3), kw, spec.stride, spec.padding), wd);

  for (int64_t i = 0; i < n; ++i) {
    // dcols = im2col(grad_out[i]) with the same spec: (fk, l).
    float* dcols = ThreadLocalWorkspace(kWorkspaceIm2Col, fk * l);
    Im2ColInto(grad_out, i, kh, kw, spec, dcols);
    // grad_x[i] = W (c, fk) x dcols (fk, l).
    Gemm(pw, dcols, pgx + i * c * l, c, fk, l, {.beta = 0.0f});
    // grad_w += x[i] (c, l) x dcols^T (l, fk); dcols is consumed
    // transposed, dropping the old materialized Transpose2d.
    Gemm(px + i * c * l, dcols, pgw, c, l, fk, {.beta = 1.0f, .trans_b = true});
    if (has_bias) SumRowsInto(grad_out.data() + i * f * gl, f, gl, pgb);
  }
  return grads;
}

namespace {

// Checks a max-pool input and returns its (N, C, H/kernel, W/kernel)
// output, uninitialized.
Tensor MaxPoolOutput(const Tensor& x, int64_t kernel) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_GE(kernel, 1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  GEO_CHECK(h % kernel == 0 && w % kernel == 0)
      << "MaxPool2d expects dims divisible by kernel; got " << h << "x" << w
      << " kernel " << kernel;
  return Tensor::Uninitialized({x.size(0), x.size(1), h / kernel, w / kernel});
}

}  // namespace

std::pair<Tensor, std::vector<int64_t>> MaxPool2dForward(const Tensor& x,
                                                         int64_t kernel) {
  Tensor out = MaxPoolOutput(x, kernel);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  const int64_t oh = out.size(2);
  const int64_t ow = out.size(3);
  std::vector<int64_t> argmax(out.numel());
  const float* px = x.data();
  float* po = out.data();
  int64_t* pam = argmax.data();
  // Each (n, c) plane is independent.
  const auto per_plane = [&](int64_t nc) {
    const float* plane = px + nc * h * w;
    const int64_t plane_off = nc * h * w;
    int64_t oidx = nc * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        float best = plane[(oi * kernel) * w + oj * kernel];
        int64_t best_off = (oi * kernel) * w + oj * kernel;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            const int64_t off = (oi * kernel + ki) * w + oj * kernel + kj;
            if (plane[off] > best) {
              best = plane[off];
              best_off = off;
            }
          }
        }
        po[oidx] = best;
        pam[oidx] = plane_off + best_off;
        ++oidx;
      }
    }
  };
  ThreadPool::Global().ParallelFor(n * c, per_plane, h * w);
  return {out, std::move(argmax)};
}

Tensor MaxPool2dEval(const Tensor& x, int64_t kernel) {
  Tensor out = MaxPoolOutput(x, kernel);
  const int64_t w = x.size(3);
  const int64_t oh = out.size(2);
  const int64_t ow = out.size(3);
  const float* px = x.data();
  float* po = out.data();
  // MaxPool2dForward's winner without its index: the same taps in the
  // same order, each kept by `v > best ? v : best` exactly where the
  // argmax loop's `if (v > best)` keeps it, so NaN and -0/+0 resolve
  // the same and the output is bitwise equal.
  const auto per_plane = [&](int64_t nc) {
    const float* plane = px + nc * oh * kernel * w;
    float* out_plane = po + nc * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      const float* r0 = plane + oi * kernel * w;
      float* orow = out_plane + oi * ow;
      if (kernel == 2) {
        // One row pair per output row, branch-free so it vectorizes.
        const float* r1 = r0 + w;
        for (int64_t oj = 0; oj < ow; ++oj) {
          float best = r0[2 * oj];
          const float b = r0[2 * oj + 1];
          best = b > best ? b : best;
          const float c = r1[2 * oj];
          best = c > best ? c : best;
          const float d = r1[2 * oj + 1];
          best = d > best ? d : best;
          orow[oj] = best;
        }
        continue;
      }
      for (int64_t oj = 0; oj < ow; ++oj) {
        float best = r0[oj * kernel];
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            const float v = r0[ki * w + oj * kernel + kj];
            best = v > best ? v : best;
          }
        }
        orow[oj] = best;
      }
    }
  };
  ThreadPool::Global().ParallelFor(x.size(0) * x.size(1), per_plane,
                                   kernel * kernel * oh * ow);
  return out;
}

Tensor MaxPool2dBackward(const Tensor& grad_out, const Shape& input_shape,
                         const std::vector<int64_t>& argmax) {
  Tensor grad_x = Tensor::Zeros(input_shape);
  GEO_CHECK_EQ(static_cast<int64_t>(argmax.size()), grad_out.numel());
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  for (int64_t i = 0; i < grad_out.numel(); ++i) px[argmax[i]] += pg[i];
  return grad_x;
}

Tensor AvgPool2dForward(const Tensor& x, int64_t kernel) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_GE(kernel, 1);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  GEO_CHECK(h % kernel == 0 && w % kernel == 0)
      << "AvgPool2d expects dims divisible by kernel";
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  Tensor out = Tensor::Uninitialized({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const float* px = x.data();
  float* po = out.data();
  const auto per_plane = [&](int64_t nc) {
    const float* plane = px + nc * h * w;
    float* out_plane = po + nc * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        float acc = 0.0f;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            acc += plane[(oi * kernel + ki) * w + oj * kernel + kj];
          }
        }
        out_plane[oi * ow + oj] = acc * inv;
      }
    }
  };
  ThreadPool::Global().ParallelFor(n * c, per_plane, h * w);
  return out;
}

Tensor AvgPool2dBackward(const Tensor& grad_out, const Shape& input_shape,
                         int64_t kernel) {
  Tensor grad_x = Tensor::Zeros(input_shape);
  const int64_t n = input_shape[0];
  const int64_t c = input_shape[1];
  const int64_t h = input_shape[2];
  const int64_t w = input_shape[3];
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  const auto per_plane = [&](int64_t nc) {
    const float* g_plane = pg + nc * oh * ow;
    float* x_plane = px + nc * h * w;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        const float g = g_plane[oi * ow + oj] * inv;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            x_plane[(oi * kernel + ki) * w + oj * kernel + kj] += g;
          }
        }
      }
    }
  };
  ThreadPool::Global().ParallelFor(n * c, per_plane, h * w);
  return grad_x;
}

Tensor UpsampleNearest2x(const Tensor& x) {
  GEO_CHECK_EQ(x.ndim(), 4);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  Tensor out = Tensor::Uninitialized({n, c, h * 2, w * 2});
  const float* px = x.data();
  float* po = out.data();
  const auto per_plane = [&](int64_t nc) {
    const float* in_plane = px + nc * h * w;
    float* out_plane = po + nc * h * w * 4;
    for (int64_t i = 0; i < h; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        const float v = in_plane[i * w + j];
        float* base = out_plane + (2 * i) * (2 * w) + 2 * j;
        base[0] = v;
        base[1] = v;
        base[2 * w] = v;
        base[2 * w + 1] = v;
      }
    }
  };
  ThreadPool::Global().ParallelFor(n * c, per_plane, 4 * h * w);
  return out;
}

Tensor UpsampleNearest2xBackward(const Tensor& grad_out) {
  GEO_CHECK_EQ(grad_out.ndim(), 4);
  const int64_t n = grad_out.size(0);
  const int64_t c = grad_out.size(1);
  const int64_t oh = grad_out.size(2);
  const int64_t ow = grad_out.size(3);
  GEO_CHECK(oh % 2 == 0 && ow % 2 == 0);
  const int64_t h = oh / 2;
  const int64_t w = ow / 2;
  Tensor grad_x = Tensor::Zeros({n, c, h, w});
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  const auto per_plane = [&](int64_t nc) {
    const float* g_plane = pg + nc * oh * ow;
    float* x_plane = px + nc * h * w;
    for (int64_t i = 0; i < h; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        const float* base = g_plane + (2 * i) * ow + 2 * j;
        x_plane[i * w + j] = base[0] + base[1] + base[ow] + base[ow + 1];
      }
    }
  };
  ThreadPool::Global().ParallelFor(n * c, per_plane, oh * ow);
  return grad_x;
}

}  // namespace geotorch::tensor
