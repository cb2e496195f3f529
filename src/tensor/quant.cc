#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace geotorch::tensor {

// AbsMax and QuantizeInt8 run 16 lanes at a time on AVX-512 (this file
// is built with the GEMM kernels' flags, src/tensor/CMakeLists.txt) and
// finish with the scalar loop, which is the formula. The vector body is
// bitwise that formula on every input; quant_test pins it. The
// intrinsics are the zero-masked forms under an all-ones mask (the same
// instructions): GCC 12 flags the unmasked ones' undefined pass-through
// operand under -Wmaybe-uninitialized.

#if defined(__AVX512F__)
namespace {
constexpr __mmask16 kAll = 0xFFFF;

// max(|p[0..16)|, acc) per lane; a NaN lane keeps acc (max_ps returns
// its second operand when the first is NaN), like std::max(m, NaN).
inline __m512 MaxAbs(const float* p, __m512 acc) {
  return _mm512_maskz_max_ps(kAll, _mm512_abs_ps(_mm512_loadu_ps(p)), acc);
}
}  // namespace
#endif

float AbsMax(const float* x, int64_t n) {
  float m = 0.0f;
  int64_t i = 0;
#if defined(__AVX512F__)
  if (n >= 16) {
    // The lanes hold no NaN and no -0, so the reduction order is free.
    __m512 acc0 = _mm512_setzero_ps();
    __m512 acc1 = _mm512_setzero_ps();
    for (; i + 32 <= n; i += 32) {
      acc0 = MaxAbs(x + i, acc0);
      acc1 = MaxAbs(x + i + 16, acc1);
    }
    for (; i + 16 <= n; i += 16) acc0 = MaxAbs(x + i, acc0);
    // Reduced by hand: GCC 12's _mm512_reduce_max_ps trips
    // -Wmaybe-uninitialized too.
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, _mm512_maskz_max_ps(kAll, acc0, acc1));
    for (const float v : lanes) m = std::max(m, v);
  }
#endif
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

float SymmetricScale(float absmax) {
  if (!(absmax > 0.0f) || !std::isfinite(absmax)) return 1.0f;
  return absmax / 127.0f;
}

void QuantizeInt8(const float* x, int64_t n, float scale, int8_t* out) {
  const float inv = 1.0f / scale;
  int64_t i = 0;
#if defined(__AVX512F__)
  // Clamping to ±127 before cvtps_epi32 (round half to even, as lrintf)
  // gives the formula's value wherever lrintf returns the rounded
  // integer. Where it returns LONG_MIN instead (NaN, v >= 2^63, +inf),
  // the formula's clamp yields -127; those lanes are patched to match.
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512 lo = _mm512_set1_ps(-127.0f);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512 wild = _mm512_set1_ps(0x1p63f);
  const __m512i neg = _mm512_set1_epi32(-127);
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(x + i), vinv);
    const __mmask16 indefinite = _mm512_cmp_ps_mask(v, wild, _CMP_NLT_UQ);
    const __m512 clamped =
        _mm512_maskz_min_ps(kAll, _mm512_maskz_max_ps(kAll, v, lo), hi);
    const __m512i q = _mm512_mask_mov_epi32(
        _mm512_maskz_cvtps_epi32(kAll, clamped), indefinite, neg);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm512_maskz_cvtepi32_epi8(kAll, q));
  }
#endif
  for (; i < n; ++i) {
    const long q = std::lrintf(x[i] * inv);
    out[i] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
  }
}

void QuantizeRowsInt8(const float* w, int64_t rows, int64_t cols, int8_t* out,
                      float* scales) {
  for (int64_t r = 0; r < rows; ++r) {
    const float s = SymmetricScale(AbsMax(w + r * cols, cols));
    scales[r] = s;
    QuantizeInt8(w + r * cols, cols, s, out + r * cols);
  }
}

void QuantizeColsInt8(const float* w, int64_t rows, int64_t cols, int8_t* out,
                      float* scales) {
  for (int64_t c = 0; c < cols; ++c) {
    float m = 0.0f;
    for (int64_t r = 0; r < rows; ++r)
      m = std::max(m, std::fabs(w[r * cols + c]));
    scales[c] = SymmetricScale(m);
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    int8_t* orow = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      const long q = std::lrintf(row[c] / scales[c]);
      orow[c] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
    }
  }
}

}  // namespace geotorch::tensor
