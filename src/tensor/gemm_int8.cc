// int8 symmetric-quantized GEMM with i32 accumulation, and the direct
// int8 convolution (ConvDirectInt8, below). GEMM layouts:
//
//   A_q: (m, k) row-major int8, per-row (or per-tensor) scales
//   B_q: (k, n) row-major int8, per-column (or per-tensor) scales
//   C:   (m, n) f32, C = sa ⊙ (A_q · B_q) ⊙ sb + beta·C
//
// The K loop walks *pairs* of k so the panels line up with AVX-512
// VNNI's i16-pair dot product:
//
//   A panel: sign-extended i16 pairs, (p2 * kMR + r) * 2 + t — one
//            4-byte pair per (k-pair, row), broadcast with set1_epi32.
//   B panel: interleaved int8 pairs, (p2 * kNRLp + j) * 2 + t — the 64
//            contiguous bytes for one k-pair widen to two zmm of i16
//            pairs via cvtepi8_epi16.
//
// On VNNI hardware the inner step is one _mm512_dpwssd_epi32 per
// (row, 16-column lane); elsewhere a portable int32 loop computes the
// same sums. Integer accumulation is exact, so both paths — and the
// serial and parallel schedules — produce bitwise-identical output.
//
// K is blocked at kKCInt8 = 8192: |a|,|b| <= 127 bounds one pair step
// at 2*127*127, so a full block stays under 2^31 in i32. Blocks past
// the first dequantize and accumulate into C in f32 (rare: every model
// in this repo has k <= 8192 at the quantized layers).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/memory.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "tensor/gemm.h"

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
#include <immintrin.h>
#define GEO_GEMM_INT8_VNNI 1
#endif

namespace geotorch::tensor {
namespace {

using namespace gemm_internal;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Packs A(ic:ic+mc, pc:pc+kc) into kMR-row micro-panels of sign-extended
// i16 pairs; rows past mc and the odd-k tail pad with zeros.
void PackAInt8(const int8_t* a, int64_t lda, int64_t ic, int64_t mc,
               int64_t pc, int64_t kc, int16_t* __restrict ap) {
  const int64_t kc2 = CeilDiv(kc, 2);
  for (int64_t pi = 0; pi * kMR < mc; ++pi) {
    int16_t* panel = ap + pi * kc2 * kMR * 2;
    const int64_t rows = std::min(kMR, mc - pi * kMR);
    const int64_t base_i = ic + pi * kMR;
    for (int64_t p2 = 0; p2 < kc2; ++p2) {
      int16_t* dst = panel + p2 * kMR * 2;
      for (int64_t r = 0; r < kMR; ++r) {
        for (int64_t t = 0; t < 2; ++t) {
          const int64_t p = 2 * p2 + t;
          dst[r * 2 + t] = (r < rows && p < kc)
                               ? static_cast<int16_t>(
                                     a[(base_i + r) * lda + pc + p])
                               : int16_t{0};
        }
      }
    }
  }
}

// Packs B(pc:pc+kc, jc:jc+nc) into kNRLp-column micro-panels of
// interleaved int8 pairs.
void PackBInt8(const int8_t* b, int64_t ldb, int64_t pc, int64_t kc,
               int64_t jc, int64_t nc, int8_t* __restrict bp) {
  const int64_t kc2 = CeilDiv(kc, 2);
  for (int64_t pj = 0; pj * kNRLp < nc; ++pj) {
    int8_t* panel = bp + pj * kc2 * kNRLp * 2;
    const int64_t cols = std::min(kNRLp, nc - pj * kNRLp);
    const int64_t base_j = jc + pj * kNRLp;
    for (int64_t p2 = 0; p2 < kc2; ++p2) {
      int8_t* dst = panel + p2 * kNRLp * 2;
      for (int64_t t = 0; t < 2; ++t) {
        const int64_t p = 2 * p2 + t;
        if (p < kc) {
          const int8_t* __restrict src = b + (pc + p) * ldb + base_j;
          for (int64_t c = 0; c < cols; ++c) dst[c * 2 + t] = src[c];
          for (int64_t c = cols; c < kNRLp; ++c) dst[c * 2 + t] = 0;
        } else {
          for (int64_t c = 0; c < kNRLp; ++c) dst[c * 2 + t] = 0;
        }
      }
    }
  }
}

// One kMR x kNRLp register tile: exact i32 sums over the packed pair
// panels, spilled and dequantized into C. `sa` points at the kMR row
// scales for this tile, `sb` at the kNRLp column scales. The epilogue
// (non-null only on the final K block) runs after dequantization as
// separate bias/activation passes over the row segment, matching the
// unfused op order bitwise.
void MicroKernelInt8(int64_t kc2, const int16_t* __restrict ap,
                     const int8_t* __restrict bp, float* __restrict c,
                     int64_t ldc, int64_t rows, int64_t cols, const float* sa,
                     const float* sb, float beta_eff, const GemmEpilogue* ep,
                     int64_t row0, int64_t col0) {
  alignas(64) int32_t spill[kMR * kNRLp];
#if defined(GEO_GEMM_INT8_VNNI)
  __m512i acc[kMR][2];
  for (int64_t r = 0; r < kMR; ++r) {
    acc[r][0] = _mm512_setzero_si512();
    acc[r][1] = _mm512_setzero_si512();
  }
  for (int64_t p2 = 0; p2 < kc2; ++p2) {
    const int8_t* __restrict b_slice = bp + p2 * kNRLp * 2;
    const __m512i b0 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_slice)));
    const __m512i b1 = _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_slice + 32)));
    const int16_t* __restrict a_slice = ap + p2 * kMR * 2;
    for (int64_t r = 0; r < kMR; ++r) {
      int32_t pair;
      __builtin_memcpy(&pair, a_slice + r * 2, sizeof(pair));
      const __m512i av = _mm512_set1_epi32(pair);
      acc[r][0] = _mm512_dpwssd_epi32(acc[r][0], av, b0);
      acc[r][1] = _mm512_dpwssd_epi32(acc[r][1], av, b1);
    }
  }
  for (int64_t r = 0; r < kMR; ++r) {
    _mm512_storeu_si512(spill + r * kNRLp, acc[r][0]);
    _mm512_storeu_si512(spill + r * kNRLp + 16, acc[r][1]);
  }
#else
  int32_t acc[kMR][kNRLp] = {};
  for (int64_t p2 = 0; p2 < kc2; ++p2) {
    const int16_t* __restrict a_slice = ap + p2 * kMR * 2;
    const int8_t* __restrict b_slice = bp + p2 * kNRLp * 2;
    for (int64_t r = 0; r < kMR; ++r) {
      const int32_t a0 = a_slice[r * 2];
      const int32_t a1 = a_slice[r * 2 + 1];
      for (int64_t j = 0; j < kNRLp; ++j) {
        acc[r][j] += a0 * b_slice[j * 2] + a1 * b_slice[j * 2 + 1];
      }
    }
  }
  for (int64_t r = 0; r < kMR; ++r)
    for (int64_t j = 0; j < kNRLp; ++j) spill[r * kNRLp + j] = acc[r][j];
#endif
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* __restrict acc_row = spill + r * kNRLp;
    float* __restrict c_row = c + r * ldc;
    const float sar = sa[r];
    if (beta_eff == 0.0f) {
      for (int64_t j = 0; j < cols; ++j)
        c_row[j] = sar * sb[j] * static_cast<float>(acc_row[j]);
    } else if (beta_eff == 1.0f) {
      for (int64_t j = 0; j < cols; ++j)
        c_row[j] += sar * sb[j] * static_cast<float>(acc_row[j]);
    } else {
      for (int64_t j = 0; j < cols; ++j)
        c_row[j] = beta_eff * c_row[j] +
                   sar * sb[j] * static_cast<float>(acc_row[j]);
    }
  }
  if (ep != nullptr) {
    for (int64_t r = 0; r < rows; ++r)
      ApplyEpilogueRow(c + r * ldc, cols, ep->row_bias, row0 + r,
                       ep->col_bias != nullptr ? ep->col_bias + col0 : nullptr,
                       *ep);
  }
}

struct Int8View {
  const int8_t* a;
  const int8_t* b;         // row-major (k, n); null when packed_b is set
  const int8_t* packed_b;  // pre-packed panels (PackInt8B layout)
  int64_t m, k, n;
  const Int8GemmOptions* opts;
  float ARowScale(int64_t i) const {
    return opts->a_scales[opts->a_scales_len == 1 ? 0 : i];
  }
};

void GemmRegionInt8(const Int8View& v, float* c, float beta, int64_t mb,
                    int64_t me, int64_t nb, int64_t ne) {
  // Per-tile scale slices with pad entries so edge tiles read kMR /
  // kNRLp valid floats (pad lanes multiply zero sums).
  alignas(64) float sa_tile[kMR];
  alignas(64) float sb_tile[kNRLp];
  for (int64_t jc = nb; jc < ne; jc += kNC) {
    const int64_t nc = std::min(kNC, ne - jc);
    for (int64_t pc = 0; pc < v.k; pc += kKCInt8) {
      const int64_t kc = std::min(kKCInt8, v.k - pc);
      const int64_t kc2 = CeilDiv(kc, 2);
      const int8_t* bp;
      if (v.packed_b != nullptr) {
        bp = v.packed_b + LpPackedBOffset(v.k, v.n, jc, pc, kKCInt8);
      } else {
        const int64_t b_bytes = CeilDiv(nc, kNRLp) * kNRLp * kc2 * 2;
        int8_t* wp = reinterpret_cast<int8_t*>(
            ThreadLocalWorkspace(kWorkspaceGemmLpB, CeilDiv(b_bytes, 4)));
        PackBInt8(v.b, v.n, pc, kc, jc, nc, wp);
        bp = wp;
      }
      const float beta_eff = (pc == 0) ? beta : 1.0f;
      const GemmEpilogue* ep = (pc + kc == v.k) ? v.opts->epilogue : nullptr;
      for (int64_t ic = mb; ic < me; ic += kMC) {
        const int64_t mc = std::min(kMC, me - ic);
        const int64_t a_bytes = CeilDiv(mc, kMR) * kMR * kc2 * 2 * 2;
        int16_t* ap = reinterpret_cast<int16_t*>(
            ThreadLocalWorkspace(kWorkspaceGemmLpA, CeilDiv(a_bytes, 4)));
        PackAInt8(v.a, v.k, ic, mc, pc, kc, ap);
        for (int64_t pj = 0; pj * kNRLp < nc; ++pj) {
          const int64_t cols = std::min(kNRLp, nc - pj * kNRLp);
          for (int64_t j = 0; j < kNRLp; ++j) {
            const int64_t col = jc + pj * kNRLp + j;
            sb_tile[j] =
                j < cols
                    ? v.opts->b_scales[v.opts->b_scales_len == 1 ? 0 : col]
                    : 0.0f;
          }
          for (int64_t pi = 0; pi * kMR < mc; ++pi) {
            const int64_t rows = std::min(kMR, mc - pi * kMR);
            for (int64_t r = 0; r < kMR; ++r)
              sa_tile[r] = r < rows ? v.ARowScale(ic + pi * kMR + r) : 0.0f;
            MicroKernelInt8(kc2, ap + pi * kc2 * kMR * 2,
                            bp + pj * kc2 * kNRLp * 2,
                            c + (ic + pi * kMR) * v.n + jc + pj * kNRLp, v.n,
                            rows, cols, sa_tile, sb_tile, beta_eff, ep,
                            ic + pi * kMR, jc + pj * kNRLp);
          }
        }
      }
    }
  }
}

void ScaleCInt8(float* c, int64_t count, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + count, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < count; ++i) c[i] *= beta;
  }
}

void GemmInt8Impl(const Int8View& v, float* c, const Int8GemmOptions& opts) {
  if (v.m <= 0 || v.n <= 0) return;
  GEO_OBS_COUNT("gemm.int8_calls", 1);
  if (v.k <= 0) {
    ScaleCInt8(c, v.m * v.n, opts.beta);
    if (opts.epilogue != nullptr) {
      for (int64_t i = 0; i < v.m; ++i)
        ApplyEpilogueRow(c + i * v.n, v.n, opts.epilogue->row_bias, i,
                         opts.epilogue->col_bias, *opts.epilogue);
    }
    return;
  }
  const int64_t work = v.m * v.n * v.k;
  GEO_OBS_COUNT("gemm.flops", 2 * work);
  const int64_t mt = CeilDiv(v.m, kMC);
  const int64_t nt = CeilDiv(v.n, kNC);
  const bool parallel =
      OnParallelDevice() && work >= kParallelMinWork && mt * nt > 1;
  if (!parallel) {
    GemmRegionInt8(v, c, opts.beta, 0, v.m, 0, v.n);
    return;
  }
  ThreadPool::Global().ParallelFor(mt * nt, [&](int64_t t) {
    const int64_t ti = t / nt;
    const int64_t tj = t % nt;
    GemmRegionInt8(v, c, opts.beta, ti * kMC, std::min(v.m, (ti + 1) * kMC),
                   tj * kNC, std::min(v.n, (tj + 1) * kNC));
  });
}

// --- Direct int8 convolution ----------------------------------------------
//
// ConvDirectInt8 never builds a patch matrix. The sample is staged once
// as u8 activations q + 128, four channels per dword, and the register
// tile walks that image: for kConvMR filters and 16·NW output columns of
// one output row, each tap group (4 channels at one (ki, kj)) is NW
// 64-byte loads plus one _mm512_dpbusd_epi32 per (filter, load), which
// adds 4 u8·s8 products to each i32 lane. Integer sums are exact in any
// order, so regrouping the taps by 4 channels changes no sum, and
// subtracting 128·Σw per filter recovers Σ q·w exactly.

constexpr int64_t kConvMR = 8;   // filters per register tile
constexpr int64_t kLanes = 16;   // output columns per zmm of i32 sums

// The staged sample (StageInt8Image): dword (channel group cg, padded
// row ii) starts at data + (cg·ph + ii)·row; each row holds `stride`
// column phases of wsp dwords.
struct StagedInt8Image {
  const uint32_t* data;
  int64_t ph, wsp, row;
};

// Stages one quantized sample: the dword at (group cg, padded row ii,
// padded column jj) holds channels 4cg..4cg+3 as q + 128 bytes, channel
// 4cg in the low byte. Padding and channels past c hold 128 (q = 0). At
// stride s, column jj goes to phase jj % s, index jj / s, so the taps
// of consecutive output columns are consecutive dwords at every stride.
// Rows carry slack so that a tile of tile_cols columns reads in bounds.
StagedInt8Image StageInt8Image(const ConvImageView<int8_t>& b,
                               int64_t tile_cols) {
  const int64_t s = b.stride;
  const int64_t groups = CeilDiv(b.c, 4);
  const int64_t ph = b.h + 2 * b.pad;
  const int64_t wsp = std::max(CeilDiv(b.w + 2 * b.pad, s),
                               CeilDiv(b.ow, tile_cols) * tile_cols +
                                   (b.kw - 1) / s);
  const int64_t row = s * wsp;
  const int64_t total = groups * ph * row;
  // A per-thread buffer of its own type, not a float workspace slot, so
  // the dwords are only ever accessed as uint32_t.
  thread_local std::vector<uint32_t> buffer;
  if (static_cast<int64_t>(buffer.size()) < total) buffer.resize(total);
  uint32_t* st = buffer.data();
  std::fill(st, st + total, 0x80808080u);
  for (int64_t ci = 0; ci < b.c; ++ci) {
    const int shift = 8 * static_cast<int>(ci % 4);
    for (int64_t i = 0; i < b.h; ++i) {
      const uint8_t* __restrict src =
          reinterpret_cast<const uint8_t*>(b.x + (ci * b.h + i) * b.w);
      uint32_t* __restrict dst = st + ((ci / 4) * ph + i + b.pad) * row;
      if (s == 1) {  // the general formula, without the divisions
        for (int64_t j = 0; j < b.w; ++j)
          dst[b.pad + j] ^= uint32_t{src[j]} << shift;
      } else {
        for (int64_t j = 0; j < b.w; ++j) {
          const int64_t jj = j + b.pad;
          dst[(jj % s) * wsp + jj / s] ^= uint32_t{src[j]} << shift;
        }
      }
    }
  }
  return {st, ph, wsp, row};
}

// One tile of ConvDirectInt8: exact i32 sums for kConvMR filters and
// 16·NW output columns over `groups` tap groups, dequantized as GemmInt8
// writes back, c = (sa · sb) · float(sum - offset), into the `rows` x
// `cols` corner of c (row stride ldc). `in` is the staged image at the
// tile's output origin, off[g] the offset of tap group g from it, `wp`
// the filter tile's packed weights; scale[r] = w.scales · act_scale.
template <int NW>
void ConvInt8Tile(const uint32_t* in, const int32_t* off, int64_t groups,
                  const int32_t* wp, const float* scale, const int32_t* offset,
                  int64_t rows, int64_t cols, float* c, int64_t ldc) {
#if defined(GEO_GEMM_INT8_VNNI)
  // The pragmas unroll early enough for the accumulators to stay in
  // registers.
  __m512i acc[kConvMR][NW];
#pragma GCC unroll 8
  for (int r = 0; r < kConvMR; ++r)
#pragma GCC unroll 2
    for (int t = 0; t < NW; ++t) acc[r][t] = _mm512_setzero_si512();
  for (int64_t g = 0; g < groups; ++g, wp += kConvMR) {
    const uint32_t* src = in + off[g];
    __m512i a[NW];
#pragma GCC unroll 2
    for (int t = 0; t < NW; ++t) a[t] = _mm512_loadu_si512(src + t * kLanes);
#pragma GCC unroll 8
    for (int r = 0; r < kConvMR; ++r) {
      const __m512i wv = _mm512_set1_epi32(wp[r]);
#pragma GCC unroll 2
      for (int t = 0; t < NW; ++t)
        acc[r][t] = _mm512_dpbusd_epi32(acc[r][t], a[t], wv);
    }
  }
  __mmask16 mask[NW];
  for (int t = 0; t < NW; ++t) {
    const int64_t left = std::clamp<int64_t>(cols - t * kLanes, 0, kLanes);
    mask[t] = static_cast<__mmask16>((uint32_t{1} << left) - 1);
  }
#pragma GCC unroll 8
  for (int r = 0; r < kConvMR; ++r) {
    if (r >= rows) break;
    const __m512 sv = _mm512_set1_ps(scale[r]);
    const __m512i ov = _mm512_set1_epi32(offset[r]);
#pragma GCC unroll 2
    for (int t = 0; t < NW; ++t) {
      const __m512 sum = _mm512_maskz_cvtepi32_ps(
          0xFFFF, _mm512_sub_epi32(acc[r][t], ov));
      _mm512_mask_storeu_ps(c + r * ldc + t * kLanes, mask[t],
                            _mm512_mul_ps(sv, sum));
    }
  }
#else
  constexpr int64_t kCols = NW * kLanes;
  int32_t acc[kConvMR][kCols] = {};
  for (int64_t g = 0; g < groups; ++g, wp += kConvMR) {
    const uint8_t* a = reinterpret_cast<const uint8_t*>(in + off[g]);
    const uint8_t* w = reinterpret_cast<const uint8_t*>(wp);
    for (int64_t r = 0; r < kConvMR; ++r)
      for (int64_t j = 0; j < kCols; ++j)
        for (int64_t t = 0; t < 4; ++t)
          acc[r][j] += int32_t{a[j * 4 + t]} *
                       int32_t{static_cast<int8_t>(w[r * 4 + t])};
  }
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t j = 0; j < cols; ++j)
      c[r * ldc + j] = scale[r] * static_cast<float>(acc[r][j] - offset[r]);
#endif
}

}  // namespace

void GemmInt8(const int8_t* a, const int8_t* b, float* c, int64_t m, int64_t k,
              int64_t n, const Int8GemmOptions& opts) {
  const Int8View v{a, b, nullptr, m, k, n, &opts};
  GemmInt8Impl(v, c, opts);
}

int64_t Int8PackedBSize(int64_t k, int64_t n) {
  return LpPackedBSize(k, n, kKCInt8);
}

void PackInt8B(const int8_t* b, int64_t k, int64_t n, int8_t* packed) {
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKCInt8) {
      const int64_t kc = std::min(kKCInt8, k - pc);
      PackBInt8(b, n, pc, kc, jc, nc,
                packed + LpPackedBOffset(k, n, jc, pc, kKCInt8));
    }
  }
}

void GemmInt8(const int8_t* a, Int8PackedB b, float* c, int64_t m, int64_t k,
              int64_t n, const Int8GemmOptions& opts) {
  const Int8View v{a, nullptr, b.data, m, k, n, &opts};
  GemmInt8Impl(v, c, opts);
}

Int8ConvWeights PackInt8ConvWeights(const int8_t* w_q, const float* w_scales,
                                    int64_t f, int64_t c, int64_t kh,
                                    int64_t kw) {
  const int64_t k = c * kh * kw;
  GEO_CHECK_LE(k, kConvInt8MaxK) << "int8 conv taps overflow the i32 sum";
  Int8ConvWeights w;
  w.f = f;
  w.c = c;
  w.kh = kh;
  w.kw = kw;
  const int64_t groups = CeilDiv(c, 4) * kh * kw;
  w.packed.assign(CeilDiv(f, kConvMR) * groups * kConvMR, 0);
  w.offset.assign(f, 0);
  w.scales.assign(w_scales, w_scales + f);
  for (int64_t fi = 0; fi < f; ++fi) {
    int32_t sum = 0;
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t tap = 0; tap < kh * kw; ++tap) {
        const int8_t v = w_q[fi * k + ci * kh * kw + tap];
        const int64_t g = (ci / 4) * kh * kw + tap;
        uint8_t* dword = reinterpret_cast<uint8_t*>(
            &w.packed[((fi / kConvMR) * groups + g) * kConvMR + fi % kConvMR]);
        dword[ci % 4] = static_cast<uint8_t>(v);
        sum += v;
      }
    }
    w.offset[fi] = 128 * sum;
  }
  return w;
}

void ConvDirectInt8(const ConvImageView<int8_t>& b, const Int8ConvWeights& w,
                    float act_scale, float* c, const GemmEpilogue* ep) {
  GEO_CHECK(b.c == w.c && b.kh == w.kh && b.kw == w.kw)
      << "int8 conv weights do not match the input";
  GEO_OBS_COUNT("gemm.path.conv_direct_int8", 1);
  const int64_t n = b.N();
  const int nw = b.ow > kLanes ? 2 : 1;
  const int64_t tile_cols = nw * kLanes;
  const StagedInt8Image img = StageInt8Image(b, tile_cols);
  // Offset of tap group (cg, ki, kj) from an output origin: padded row
  // oi·s + ki, phase kj % s, index oj + kj / s.
  const int64_t groups = CeilDiv(b.c, 4) * b.kh * b.kw;
  std::vector<int32_t> off(groups);
  for (int64_t g = 0; g < groups; ++g) {
    const int64_t kj = g % b.kw;
    const int64_t cg_ki = g / b.kw;  // cg·kh + ki
    const int64_t ki = cg_ki % b.kh;
    off[g] = static_cast<int32_t>((cg_ki / b.kh * img.ph + ki) * img.row +
                                  (kj % b.stride) * img.wsp + kj / b.stride);
  }
  const int64_t row_step = b.stride * img.row;
  for (int64_t f0 = 0; f0 < w.f; f0 += kConvMR) {
    const int64_t rows = std::min(kConvMR, w.f - f0);
    const int32_t* wp = w.packed.data() + f0 * groups;
    float scale[kConvMR];
    for (int64_t r = 0; r < rows; ++r) scale[r] = w.scales[f0 + r] * act_scale;
    for (int64_t oi = 0; oi < b.oh; ++oi) {
      float* c_tile = c + f0 * n + oi * b.ow;
      for (int64_t j0 = 0; j0 < b.ow; j0 += tile_cols) {
        const uint32_t* in = img.data + oi * row_step + j0;
        const int64_t cols = std::min(tile_cols, b.ow - j0);
        if (nw == 2) {
          ConvInt8Tile<2>(in, off.data(), groups, wp, scale, &w.offset[f0],
                          rows, cols, c_tile + j0, n);
        } else {
          ConvInt8Tile<1>(in, off.data(), groups, wp, scale, &w.offset[f0],
                          rows, cols, c_tile + j0, n);
        }
      }
    }
  }
  // The epilogue passes run over each finished filter plane, after the
  // dequantization: the op order of GemmInt8's write-back.
  if (ep != nullptr) {
    for (int64_t r = 0; r < w.f; ++r)
      ApplyEpilogueRow(c + r * n, n, ep->row_bias, r, ep->col_bias, *ep);
  }
}

}  // namespace geotorch::tensor
