#ifndef GEOTORCH_TENSOR_GEMM_H_
#define GEOTORCH_TENSOR_GEMM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace geotorch::tensor {

/// Activation applied by a fused GEMM epilogue. Formulas are the exact
/// scalar expressions the unfused elementwise ops use (tensor/ops.cc),
/// so fusing them changes no per-element result.
enum class EpilogueAct : uint8_t {
  kNone = 0,
  kRelu,       // x > 0 ? x : 0
  kLeakyRelu,  // x > 0 ? x : slope * x
  kSigmoid,    // 1 / (1 + exp(-x))
};

/// Fused GEMM epilogue: bias add and activation applied inside the
/// kernel write-back while the C tile is still hot, instead of as
/// separate full-tensor passes after the GEMM returns. Per-element the
/// op order is identical to the unfused sequence (accumulate → +bias →
/// activation; for int8, dequantize → +bias → activation), and each
/// step runs as its own pass over the register tile, so fused output is
/// bitwise identical to unfused for f32 and int8. The epilogue fires
/// exactly once per element, on the final K block.
struct GemmEpilogue {
  /// Per-row bias: c[i][j] += row_bias[i]. Conv uses this (one bias per
  /// output channel; channels are rows of the (F, H·W) output).
  const float* row_bias = nullptr;
  /// Per-column bias: c[i][j] += col_bias[j]. Linear uses this (one
  /// bias per output feature; features are columns of (batch, out)).
  const float* col_bias = nullptr;
  EpilogueAct act = EpilogueAct::kNone;
  float leaky_slope = 0.01f;
};

/// Options for Gemm(). Operands are dense row-major float32; the
/// `trans_*` flags select a logically transposed operand without
/// materializing the transpose (the packing stage absorbs the layout).
struct GemmOptions {
  /// C := A_op·B_op + beta·C. With beta == 0 the output may be
  /// uninitialized (it is overwritten); beta == 1 accumulates, which is
  /// what the convolution backward passes use for `+=` semantics.
  float beta = 0.0f;
  /// When set, `a` holds A^T: stored (k, m) row-major.
  bool trans_a = false;
  /// When set, `b` holds B^T: stored (n, k) row-major.
  bool trans_b = false;
  /// Optional fused epilogue (bias + activation in the write-back).
  /// Must stay valid for the duration of the call; null means the
  /// plain write-back, byte-identical to the pre-fusion kernel.
  const GemmEpilogue* epilogue = nullptr;
};

/// Blocked, packed SGEMM: C (m×n) = A_op (m×k) · B_op (k×n) + beta·C.
///
/// Cache-blocked over (MC, KC, NC) with A/B panels packed into
/// thread-local scratch (core/memory workspaces) and a register-tiled
/// MR×NR micro-kernel written to auto-vectorize. Small problems fall
/// through to the reference loop so tiny matmuls don't pay packing
/// overhead. Deterministic: the K-blocking (accumulation) order is
/// identical on the serial and parallel paths.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const GemmOptions& opts = {});

/// Reference triple-loop kernel, compiled with the project's default
/// flags. This is the pre-blocking `MatMul`/`RawMatMul` loop, kept as
/// the correctness oracle for tests and the baseline the micro-benchmark
/// sweep measures speedups against.
void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, const GemmOptions& opts = {});

/// Options for GemmInt8. Scales map the int8 operands back to real
/// values: row i of A carries a_scales[i % a_scales_len] (pass len 1
/// for a per-tensor activation scale), column j of B carries
/// b_scales[j % b_scales_len] (per-output-channel weight scales).
struct Int8GemmOptions {
  const float* a_scales = nullptr;
  int64_t a_scales_len = 1;
  const float* b_scales = nullptr;
  int64_t b_scales_len = 1;
  /// C := dequant(A·B) + beta·C (beta in {0, 1} fast paths as in Gemm).
  float beta = 0.0f;
  /// Optional fused epilogue, applied after dequantization (the int8
  /// "dequant scale" is already part of the kernel write-back): c =
  /// act(sa·sb·acc + bias). Same validity/bitwise contract as
  /// GemmOptions::epilogue.
  const GemmEpilogue* epilogue = nullptr;
};

/// int8 symmetric-quantized GEMM with i32 accumulation (gemm_int8.cc):
/// C (m×n, f32) = a_scale ⊙ (A_q (m×k, int8) · B_q (k×n, int8)) ⊙
/// b_scale + beta·C. Integer accumulation is exact, so serial and
/// parallel paths are bitwise identical; on AVX-512 VNNI hardware the
/// inner product runs on _mm512_dpwssd_epi32, elsewhere on a portable
/// int32 loop with the same results. The K dimension is blocked at
/// kKCInt8 (i32-overflow-safe: 127·127·kKCInt8 < 2^31); blocks past the
/// first dequantize-accumulate into C in f32.
void GemmInt8(const int8_t* a, const int8_t* b, float* c, int64_t m, int64_t k,
              int64_t n, const Int8GemmOptions& opts);

/// Pre-packed constant B operand (weights). Serving calls the same
/// GEMM repeatedly against a weight matrix that never changes, so the
/// panel-packing of B — a large share of a small-batch GEMM — is
/// hoisted to SetPrecision time: PackInt8B lays B out in exactly the
/// blocked panel order GemmInt8 walks, and the packed overload skips
/// the per-call B pack entirely (A is still packed per call). The
/// packed blob is kernel-version-specific and must not be persisted.
struct Int8PackedB {
  const int8_t* data = nullptr;
};
/// Number of int8 elements PackInt8B writes for a (k, n) matrix.
int64_t Int8PackedBSize(int64_t k, int64_t n);
/// b: row-major (k, n) int8, no transpose.
void PackInt8B(const int8_t* b, int64_t k, int64_t n, int8_t* packed);
void GemmInt8(const int8_t* a, Int8PackedB b, float* c, int64_t m, int64_t k,
              int64_t n, const Int8GemmOptions& opts);

/// Implicit im2col view of one (C, H, W) image plane: the B operand of
/// a convolution GEMM without materializing the (C·KH·KW, OH·OW) patch
/// matrix. The packing stage gathers panel rows straight from the image
/// — row p of the virtual matrix is kernel tap (ci, ki, kj) = unflatten
/// of p, column j is output pixel (oi, oj) = unflatten of j — producing
/// byte-identical panels to packing a materialized im2col matrix, while
/// skipping the full extra write+read pass over it.
template <typename T>
struct ConvImageView {
  const T* x = nullptr;  // one sample, (c, h, w) row-major
  int64_t c = 0, h = 0, w = 0;
  int64_t kh = 0, kw = 0;
  int64_t stride = 1, pad = 0;
  int64_t oh = 0, ow = 0;

  int64_t K() const { return c * kh * kw; }
  int64_t N() const { return oh * ow; }

  /// Gathers columns [j0, j0 + len) of virtual row p into dst.
  /// Out-of-image taps read as zero, matching Im2ColInto's memset.
  /// Stride-1 spans copy their interior with memcpy (only the padded
  /// edges need element fills), so packing costs roughly what the
  /// dense pack pays — without ever writing the patch matrix.
  void GatherRow(int64_t p, int64_t j0, int64_t len, T* dst) const {
    const int64_t ci = p / (kh * kw);
    const int64_t rem = p - ci * kh * kw;
    const int64_t ki = rem / kw;
    const int64_t kj = rem - ki * kw;
    int64_t oi = j0 / ow;  // the only division; spans then walk rows
    int64_t oj0 = j0 - oi * ow;
    int64_t remaining = len;
    T* out = dst;
    const T* src_plane = x + ci * h * w;
    while (remaining > 0) {
      const int64_t span = std::min(remaining, ow - oj0);
      const int64_t ii = oi * stride + ki - pad;
      if (ii < 0 || ii >= h) {
        for (int64_t s = 0; s < span; ++s) out[s] = T{0};
      } else {
        const T* src_row = src_plane + ii * w;
        if (stride == 1) {
          const int64_t jj0 = oj0 + kj - pad;  // source col of out[0]
          int64_t s = std::min(span, std::max(int64_t{0}, -jj0));
          for (int64_t t = 0; t < s; ++t) out[t] = T{0};
          const int64_t valid = std::min(span, w - jj0);
          if (valid > s) {
            __builtin_memcpy(out + s, src_row + jj0 + s,
                             static_cast<size_t>(valid - s) * sizeof(T));
            s = valid;
          }
          for (; s < span; ++s) out[s] = T{0};
        } else {
          for (int64_t s = 0; s < span; ++s) {
            const int64_t jj = (oj0 + s) * stride + kj - pad;
            out[s] = (jj >= 0 && jj < w) ? src_row[jj] : T{0};
          }
        }
      }
      out += span;
      remaining -= span;
      oj0 = 0;
      ++oi;
    }
  }
};

/// Convolution GEMM over an implicit im2col B operand: C (m × b.N()) =
/// A (m × b.K()) · im2col(b), same blocking, determinism, and epilogue
/// semantics as the dense overloads (the small-problem reference
/// fallback materializes the patch matrix into the im2col workspace, so
/// outputs are bitwise identical to the explicit-im2col path at every
/// size). A is the f32 row-major weight matrix.
void GemmConv(const float* a, const ConvImageView<float>& b, float* c,
              int64_t m, const GemmOptions& opts = {});

/// Conv weights in the layout of ConvDirectInt8 (DESIGN.md §10), built
/// once per weight version (Conv2d packs them at SetPrecision) from the
/// row-quantized (f, c·kh·kw) int8 matrix and its per-filter scales.
/// Derived state: kernel-version-specific, never persisted.
struct Int8ConvWeights {
  int64_t f = 0, c = 0, kh = 0, kw = 0;
  /// Per filter tile of 8 and tap group (4 channels at one (ki, kj)),
  /// one 4-byte dword of int8 weights per filter; pad channels and
  /// filters hold 0.
  std::vector<int32_t> packed;
  /// 128·Σw per filter: the activations enter the kernel as q + 128.
  std::vector<int32_t> offset;
  std::vector<float> scales;
};

/// Packs w_q (f, c·kh·kw) row-major, filter f scaled by w_scales[f].
/// Requires c·kh·kw <= gemm_internal::kConvInt8MaxK.
Int8ConvWeights PackInt8ConvWeights(const int8_t* w_q, const float* w_scales,
                                    int64_t f, int64_t c, int64_t kh,
                                    int64_t kw);

/// Direct int8 convolution of one quantized sample `b` (q in [-127,
/// 127], any stride and padding): c (w.f, b.N()) = (w.scales[r] ·
/// act_scale) · Σ w_q·q, then `ep` on each written row. The i32 sums
/// are exact, so the output is bitwise that of im2col + GemmInt8 with
/// the same epilogue whenever c·kh·kw <= kKCInt8 (one GemmInt8 K
/// block). Runs on the calling thread, like the f32 direct forward:
/// Conv2dForwardInt8 spreads samples over the pool.
void ConvDirectInt8(const ConvImageView<int8_t>& b, const Int8ConvWeights& w,
                    float act_scale, float* c, const GemmEpilogue* ep);

/// Direct stride-1 convolution backward kernels (DESIGN.md §13): the
/// two per-sample GEMMs of a conv backward, computed without the patch
/// matrix. `b` describes one sample of the forward input, `m` is the
/// filter count and `g` that sample's (m, b.N()) output gradient. Each
/// output element keeps the exact K-order FMA chain and per-kKC-block
/// merge of the blocked Gemm it replaces, so the results are bitwise
/// those of im2col + Gemm (+ col2im). Callers route only stride-1
/// problems with m·K·N >= kBlockedMinWork here; below that, Gemm's
/// reference loop rounds differently. The pool splits the disjoint
/// tiles across its workers when ThreadPool::Chunks allows.
///
/// Weight gradient: gw (m, b.K()) += g · im2col(b)ᵀ, as
/// Gemm(g, cols, gw, m, b.N(), b.K(), {.beta = 1, .trans_b = true}).
void ConvBackwardWeight(const float* g, const ConvImageView<float>& b,
                        float* gw, int64_t m);

/// The weights (m, b.K()) row-major, transposed into the per-tap
/// channel panels ConvBackwardInput reads. Pack once per backward call.
int64_t ConvBackwardInputWSize(const ConvImageView<float>& b, int64_t m);
void PackConvBackwardInputW(const float* w, const ConvImageView<float>& b,
                            int64_t m, float* packed);

/// Input gradient: grad_x (b.c, b.h, b.w) = col2im(Wᵀ · g), as
/// Gemm(w, g, cols, b.K(), m, b.N(), {.beta = 0, .trans_a = true})
/// followed by col2im's scatter-add into a zeroed image. Overwrites
/// grad_x; `b.x` is not read.
void ConvBackwardInput(const float* w_packed, const float* g,
                       const ConvImageView<float>& b, float* grad_x,
                       int64_t m);

/// The f32 kernels' compiled shape, fixed by the vector ISA the build
/// targets (DESIGN.md §5 *Re-tuning*). Benchmarks print it; tests pick
/// their tail shapes and expected output bits from it.
struct GemmKernelShape {
  int64_t lane = 0;     // floats per vector lane
  int64_t rows = 0;     // register-tile rows
  int64_t cols = 0;     // register-tile columns
  int64_t k_block = 0;  // shared K block: each chain restarts past it
  bool fma = false;     // acc += a·b rounds once (fused multiply-add)
};
GemmKernelShape GemmKernelInfo();

namespace gemm_internal {

// Cache blocking shared by the f32 and int8 GEMMs (see DESIGN.md §5
// *Re-tuning*). The f32 register tile and K block live in gemm.cc: the
// tile's row count follows the vector ISA gemm.cc is compiled for, and
// this header is also compiled without it (conv.cc, the tests).
inline constexpr int64_t kMC = 96;   // A block rows      (MC×KC panel in L2)
inline constexpr int64_t kNC = 512;  // B block columns   (KC×NC panel in L3)

// Problems with m*n*k below this run the reference loop (packing would
// dominate); at or above it the blocked kernel engages.
inline constexpr int64_t kBlockedMinWork = int64_t{1} << 15;

// The int8 kernel widens the register tile to kNRLp columns (its
// micro-kernel targets 512-bit lanes) and blocks K at kKCInt8 so the
// i32 accumulator cannot overflow:
// 127 * 127 * kKCInt8 = 1.3e8 < 2^31.
inline constexpr int64_t kNRLp = 32;
inline constexpr int64_t kKCInt8 = 8192;

// ConvDirectInt8 keeps one i32 sum per output over all K taps of u8
// activations (q + 128 <= 255) times int8 weights: K·255·127 < 2^31.
// Conv2d keeps a deeper layer in f32.
inline constexpr int64_t kConvInt8MaxK =
    ((int64_t{1} << 31) - 1) / (255 * 127);

// Geometry of the pre-packed int8 B blob: panel blocks are
// laid out jc-major (kNC column blocks), then pc (kc_block K blocks),
// each block holding ceil(nc/kNRLp) micro-panels of kNRLp columns of
// K pairs — exactly the order the GemmRegion loops consume them.
inline constexpr int64_t LpCeilDiv(int64_t a, int64_t b) {
  return (a + b - 1) / b;
}
// Total packed K extent (every K block rounds up to whole pairs).
inline int64_t LpPairedK(int64_t k, int64_t kc_block) {
  int64_t total = 0;
  for (int64_t pc = 0; pc < k; pc += kc_block) {
    const int64_t kc = k - pc < kc_block ? k - pc : kc_block;
    total += 2 * LpCeilDiv(kc, 2);
  }
  return total;
}
inline int64_t LpPackedBSize(int64_t k, int64_t n, int64_t kc_block) {
  int64_t total = 0;
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = n - jc < kNC ? n - jc : kNC;
    total += LpCeilDiv(nc, kNRLp) * kNRLp * LpPairedK(k, kc_block);
  }
  return total;
}
// Element offset of the (jc, pc) block. jc is a multiple of kNC, so
// every earlier column block is full width (kNC, a multiple of kNRLp).
inline int64_t LpPackedBOffset(int64_t k, int64_t n, int64_t jc, int64_t pc,
                               int64_t kc_block) {
  const int64_t nc = n - jc < kNC ? n - jc : kNC;
  const int64_t width = LpCeilDiv(nc, kNRLp) * kNRLp;
  int64_t k_before = 0;
  for (int64_t p = 0; p < pc; p += kc_block) {
    const int64_t kc = k - p < kc_block ? k - p : kc_block;
    k_before += 2 * LpCeilDiv(kc, 2);
  }
  return jc * LpPairedK(k, kc_block) + width * k_before;
}

// Applies a fused epilogue to one written-back C row segment. Each step
// is its own pass over the segment — the same pass structure as the
// unfused full-tensor ops — so per-element results match the unfused
// path bitwise (no cross-step FMA contraction is possible).
inline void ApplyEpilogueRow(float* row, int64_t cols, const float* row_bias,
                             int64_t r, const float* col_bias,
                             const GemmEpilogue& ep) {
  if (row_bias != nullptr) {
    const float b = row_bias[r];
    for (int64_t j = 0; j < cols; ++j) row[j] += b;
  }
  if (col_bias != nullptr) {
    for (int64_t j = 0; j < cols; ++j) row[j] += col_bias[j];
  }
  switch (ep.act) {
    case EpilogueAct::kNone:
      break;
    case EpilogueAct::kRelu:
      for (int64_t j = 0; j < cols; ++j)
        row[j] = row[j] > 0.0f ? row[j] : 0.0f;
      break;
    case EpilogueAct::kLeakyRelu:
      for (int64_t j = 0; j < cols; ++j)
        row[j] = row[j] > 0.0f ? row[j] : ep.leaky_slope * row[j];
      break;
    case EpilogueAct::kSigmoid:
      for (int64_t j = 0; j < cols; ++j)
        row[j] = 1.0f / (1.0f + std::exp(-row[j]));
      break;
  }
}

}  // namespace gemm_internal

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_GEMM_H_
