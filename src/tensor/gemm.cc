// Blocked, packed SGEMM (BLIS-style). Structure:
//
//   for jc in N by NC:            B strip
//     for pc in K by KC:          shared-K block (accumulation order is
//                                 fixed, so serial == parallel bitwise)
//       pack B(pc:kc, jc:nc)      -> thread-local ~KC*NC panel
//       for ic in M by MC:
//         pack A(ic:mc, pc:kc)    -> thread-local ~MC*KC panel
//         for each MR*NR register tile: micro-kernel over kc
//
// The micro-kernel reads contiguous MR- and NR-wide slices of the packed
// panels, accumulates into a local MR*NR tile, and is written so the
// compiler auto-vectorizes the NR loop into FMA chains (this file is
// built with the vector ISA of the build machine; see
// src/tensor/CMakeLists.txt). Transposed operands are absorbed by the
// packing stage, so callers never materialize a transpose.
//
// Parallel execution tiles the M×N macro-block grid across the thread
// pool; each chunk packs into its own per-thread workspace. The pool
// decides the fan-out (ThreadPool::Chunks): a call nested in a pool
// chunk (per-sample conv loops) runs the whole region serially, so the
// kernel is re-entrant under the dispatch rules in DESIGN.md §5.

#include "tensor/gemm.h"

#include <algorithm>

#include "core/check.h"
#include "core/memory.h"
#include "core/thread_pool.h"
#include "obs/obs.h"

namespace geotorch::tensor {
namespace {

using namespace gemm_internal;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// The f32 register tile, sized to the widest vector the build's ISA has
// (DESIGN.md §5 *Re-tuning*). The accumulator is kMR rows × kNR columns
// of VecLanes. Under AVX-512 a lane is 16 floats and 8 rows fill 8 of
// the 32 zmm registers, so 16 filters or channels fill two tiles. AVX
// keeps 8-float lanes and 6 rows: 8 rows × 2 lanes would spill its 16
// ymm registers. Without 32-byte vectors, 4-float lanes avoid
// double-pumped emulation and ABI warnings. These live here, not in
// gemm.h: other translation units are compiled for another ISA.
#if defined(__AVX512F__)
typedef float VecLane __attribute__((vector_size(64), aligned(4)));
constexpr int64_t kLane = 16;
constexpr int64_t kMR = 8;
#elif defined(__AVX__)
typedef float VecLane __attribute__((vector_size(32), aligned(4)));
constexpr int64_t kLane = 8;
constexpr int64_t kMR = 6;
#else
typedef float VecLane __attribute__((vector_size(16), aligned(4)));
constexpr int64_t kLane = 4;
constexpr int64_t kMR = 6;
#endif
constexpr int64_t kNR = 16;   // register-tile columns
constexpr int64_t kKC = 256;  // shared K block
constexpr int64_t kLanesPerRow = kNR / kLane;
// Accumulators of one register tile; the small-filter tiles below
// spend the same number, arranged differently.
constexpr int64_t kTileLanes = kMR * kLanesPerRow;
static_assert(kNR % kLane == 0);
static_assert(kMC % kMR == 0);

// Logical-element access over the (possibly transposed) operands. When
// `conv_b` is set, B is an implicit im2col view and the packing stage
// gathers panel rows straight from the image (never transposed).
struct OperandView {
  const float* a;
  const float* b;
  int64_t m, k, n;
  bool ta, tb;
  const ConvImageView<float>* conv_b = nullptr;
  float A(int64_t i, int64_t p) const { return ta ? a[p * m + i] : a[i * k + p]; }
  float B(int64_t p, int64_t j) const { return tb ? b[j * k + p] : b[p * n + j]; }
};

// Packs A(ic:ic+mc, pc:pc+kc) into kMR-row micro-panels: panel `pi`
// holds rows [pi*kMR, pi*kMR+kMR) laid out column-major (p outer, r
// inner) so the micro-kernel reads one contiguous MR-slice per k step.
// Rows past `mc` pad with zeros.
void PackABlock(const OperandView& v, int64_t ic, int64_t mc, int64_t pc,
                int64_t kc, float* __restrict ap) {
  for (int64_t pi = 0; pi * kMR < mc; ++pi) {
    float* panel = ap + pi * kc * kMR;
    const int64_t rows = std::min(kMR, mc - pi * kMR);
    const int64_t base_i = ic + pi * kMR;
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = panel + p * kMR;
      int64_t r = 0;
      for (; r < rows; ++r) dst[r] = v.A(base_i + r, pc + p);
      for (; r < kMR; ++r) dst[r] = 0.0f;
    }
  }
}

// Packs B(pc:pc+kc, jc:jc+nc) into kNR-column micro-panels (p outer,
// column inner); columns past `nc` pad with zeros.
void PackBBlock(const OperandView& v, int64_t pc, int64_t kc, int64_t jc,
                int64_t nc, float* __restrict bp) {
  if (v.conv_b != nullptr) {
    // Gather each virtual row once at full block width into an L1 stage
    // (one GatherRow per K row amortizes its row-walk over all panels),
    // then deal the stage out to the kNR-column micro-panels.
    alignas(64) float stage[kNC];
    for (int64_t p = 0; p < kc; ++p) {
      v.conv_b->GatherRow(pc + p, jc, nc, stage);
      for (int64_t pj = 0; pj * kNR < nc; ++pj) {
        const int64_t cols = std::min(kNR, nc - pj * kNR);
        float* __restrict dst = bp + pj * kc * kNR + p * kNR;
        const float* __restrict src = stage + pj * kNR;
        int64_t c = 0;
        for (; c < cols; ++c) dst[c] = src[c];
        for (; c < kNR; ++c) dst[c] = 0.0f;
      }
    }
    return;
  }
  for (int64_t pj = 0; pj * kNR < nc; ++pj) {
    float* panel = bp + pj * kc * kNR;
    const int64_t cols = std::min(kNR, nc - pj * kNR);
    const int64_t base_j = jc + pj * kNR;
    if (!v.tb) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* __restrict src = v.b + (pc + p) * v.n + base_j;
        float* __restrict dst = panel + p * kNR;
        int64_t c = 0;
        for (; c < cols; ++c) dst[c] = src[c];
        for (; c < kNR; ++c) dst[c] = 0.0f;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        float* __restrict dst = panel + p * kNR;
        int64_t c = 0;
        for (; c < cols; ++c) dst[c] = v.b[(base_j + c) * v.k + pc + p];
        for (; c < kNR; ++c) dst[c] = 0.0f;
      }
    }
  }
}

inline VecLane LoadLane(const float* p) {
  VecLane v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// Merges one accumulator row into the first `cols` floats of c_row:
// the first K block writes beta·C + acc (beta 0 and 1 skip the
// multiply), later blocks pass beta_eff = 1 and add.
inline void MergeRow(const VecLane (&acc)[kLanesPerRow], float* __restrict c_row,
                     int64_t cols, float beta_eff) {
  if (cols == kNR) {
    for (int64_t l = 0; l < kLanesPerRow; ++l) {
      float* dst = c_row + l * kLane;
      if (beta_eff == 0.0f) {
        __builtin_memcpy(dst, &acc[l], sizeof(VecLane));
      } else if (beta_eff == 1.0f) {
        const VecLane sum = LoadLane(dst) + acc[l];
        __builtin_memcpy(dst, &sum, sizeof(VecLane));
      } else {
        const VecLane sum = beta_eff * LoadLane(dst) + acc[l];
        __builtin_memcpy(dst, &sum, sizeof(VecLane));
      }
    }
    return;
  }
  alignas(64) float spill[kNR];
  __builtin_memcpy(spill, acc, sizeof(acc));
  if (beta_eff == 0.0f) {
    for (int64_t j = 0; j < cols; ++j) c_row[j] = spill[j];
  } else if (beta_eff == 1.0f) {
    for (int64_t j = 0; j < cols; ++j) c_row[j] += spill[j];
  } else {
    for (int64_t j = 0; j < cols; ++j)
      c_row[j] = beta_eff * c_row[j] + spill[j];
  }
}

// kMR×kNR register tile over a packed-panel pair, merged into C at the
// end. The accumulator is a local array of vector lanes with constant
// trip counts, so it lives entirely in SIMD registers across the k
// loop; each k step reads one contiguous MR slice of A and NR slice of
// B. `beta_eff` is the caller's beta on the first K block, 1 afterwards;
// only the valid rows×cols corner is written for edge tiles. `ep` is
// non-null only on the final K block: the fused epilogue runs over the
// just-written C rows while they are still in L1 (row0/col0 locate the
// tile inside C for the bias lookups).
void MicroKernel(int64_t kc, const float* __restrict ap,
                 const float* __restrict bp, float* __restrict c, int64_t ldc,
                 int64_t rows, int64_t cols, float beta_eff,
                 const GemmEpilogue* ep, int64_t row0, int64_t col0) {
  VecLane acc[kMR][kLanesPerRow] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* __restrict a_slice = ap + p * kMR;
    const float* __restrict b_slice = bp + p * kNR;
    VecLane b_lane[kLanesPerRow];
    for (int64_t l = 0; l < kLanesPerRow; ++l)
      b_lane[l] = LoadLane(b_slice + l * kLane);
    for (int64_t r = 0; r < kMR; ++r) {
      const VecLane av = a_slice[r] - VecLane{};  // broadcast
      for (int64_t l = 0; l < kLanesPerRow; ++l)
        acc[r][l] += av * b_lane[l];
    }
  }
  for (int64_t r = 0; r < rows; ++r) MergeRow(acc[r], c + r * ldc, cols, beta_eff);
  if (ep != nullptr) {
    for (int64_t r = 0; r < rows; ++r)
      ApplyEpilogueRow(c + r * ldc, cols, ep->row_bias, row0 + r,
                       ep->col_bias != nullptr ? ep->col_bias + col0 : nullptr,
                       *ep);
  }
}

// All register tiles of one (mc × nc) macro-block against packed panels.
void MacroKernel(const float* ap, const float* bp, float* c, int64_t ldc,
                 int64_t ic, int64_t mc, int64_t jc, int64_t nc, int64_t kc,
                 float beta_eff, const GemmEpilogue* ep) {
  for (int64_t pj = 0; pj * kNR < nc; ++pj) {
    const int64_t cols = std::min(kNR, nc - pj * kNR);
    for (int64_t pi = 0; pi * kMR < mc; ++pi) {
      const int64_t rows = std::min(kMR, mc - pi * kMR);
      MicroKernel(kc, ap + pi * kc * kMR, bp + pj * kc * kNR,
                  c + (ic + pi * kMR) * ldc + jc + pj * kNR, ldc, rows, cols,
                  beta_eff, ep, ic + pi * kMR, jc + pj * kNR);
    }
  }
}

// Serial blocked GEMM over the C region [mb, me) × [nb, ne). Each
// invocation packs into the calling thread's workspace slots, so
// parallel tasks over disjoint regions never share scratch.
void GemmRegion(const OperandView& v, float* c, float beta, int64_t mb,
                int64_t me, int64_t nb, int64_t ne,
                const GemmEpilogue* epilogue) {
  for (int64_t jc = nb; jc < ne; jc += kNC) {
    const int64_t nc = std::min(kNC, ne - jc);
    for (int64_t pc = 0; pc < v.k; pc += kKC) {
      const int64_t kc = std::min(kKC, v.k - pc);
      // The epilogue fires exactly once per element: on the last K block.
      const GemmEpilogue* ep = (pc + kc == v.k) ? epilogue : nullptr;
      const int64_t b_floats = CeilDiv(nc, kNR) * kNR * kc;
      float* bp = ThreadLocalWorkspace(kWorkspaceGemmPackB, b_floats);
      PackBBlock(v, pc, kc, jc, nc, bp);
      GEO_OBS_COUNT("gemm.pack_b_bytes",
                    b_floats * static_cast<int64_t>(sizeof(float)));
      const float beta_eff = (pc == 0) ? beta : 1.0f;
      for (int64_t ic = mb; ic < me; ic += kMC) {
        const int64_t mc = std::min(kMC, me - ic);
        const int64_t a_floats = CeilDiv(mc, kMR) * kMR * kc;
        float* ap = ThreadLocalWorkspace(kWorkspaceGemmPackA, a_floats);
        PackABlock(v, ic, mc, pc, kc, ap);
        GEO_OBS_COUNT("gemm.pack_a_bytes",
                      a_floats * static_cast<int64_t>(sizeof(float)));
        MacroKernel(ap, bp, c, v.n, ic, mc, jc, nc, kc, beta_eff, ep);
      }
    }
  }
}

// Zero-padded copy of one (c, h, w) image in the calling thread's
// im2col workspace: planes of ph = h + 2·pad rows, ws floats apart. At
// stride 1, im2col element (tap p, output pixel (oi, oj)) is
// data[Offset(p) + oi·ws + oj], out-of-image taps reading the zeros.
struct PaddedImage {
  const float* data;
  int64_t ph, ws;
  const ConvImageView<float>* b;

  int64_t Offset(int64_t p) const {
    const int64_t ci = p / (b->kh * b->kw);
    const int64_t rem = p - ci * b->kh * b->kw;
    return (ci * ph + rem / b->kw) * ws + rem % b->kw;
  }
};

PaddedImage StagePaddedImage(const ConvImageView<float>& b) {
  const int64_t ph = b.h + 2 * b.pad;
  // Row slack so the widest tile's lane loads stay inside the buffer:
  // max column read is j0 + (kw-1) + kNR-1 < (w + 2*pad) + kNR.
  const int64_t ws = b.w + 2 * b.pad + kNR;
  float* padded = ThreadLocalWorkspace(kWorkspaceIm2Col, b.c * ph * ws);
  std::fill(padded, padded + b.c * ph * ws, 0.0f);
  for (int64_t ci = 0; ci < b.c; ++ci) {
    for (int64_t ii = 0; ii < b.h; ++ii) {
      __builtin_memcpy(padded + (ci * ph + ii + b.pad) * ws + b.pad,
                       b.x + (ci * b.h + ii) * b.w,
                       static_cast<size_t>(b.w) * sizeof(float));
    }
  }
  return {padded, ph, ws, &b};
}

// Direct (im2col-free) stride-1 convolution. Instead of gathering the
// patch matrix and packing it into B panels, the register tile walks the
// image itself: for a tile of output channels and kNR output columns of
// one output row, each kernel tap contributes one unaligned kNR-wide
// load from a zero-padded copy of the input plane plus one broadcast-FMA
// per channel. The staged copy means out-of-image taps participate as
// fma(w, 0, acc) — exactly the term the im2col zeros contribute — so no
// tap is skipped or reordered.
//
// Bitwise contract with the blocked path: a C element's value depends
// only on its K-order accumulation chain, never on how rows/columns are
// tiled. This kernel keeps (a) the tap order p = (ci, ki, kj), the
// im2col row order, (b) the accumulator split at kKC boundaries with the
// same first-block-writes / later-blocks-add merge, and (c) the same
// `acc += broadcast(a) * lane(b)` VecLane idiom in the same translation
// unit, so it contracts to the same FMA sequence the micro-kernel emits.
// determinism_test pins fused == unfused bitwise on top of this.

// One kKC block of a direct conv: the packed filter panels of taps
// [pc, pc + kc), each tap's offset into the padded image, and where and
// how the block merges into C.
struct DirectBlock {
  const float* ap;     // PackABlock panels, kMR filters per panel
  const int32_t* off;  // padded-image offset of each tap
  int64_t kc;
  const float* padded;
  int64_t ws;  // padded row stride
  const ConvImageView<float>* b;
  float* c;
  int64_t m;
  float beta_eff;
  const GemmEpilogue* ep;  // last K block only
};

// Filters [f0, f0 + F) × OG output rows per register tile, F·OG <= kMR
// accumulator rows; row f·OG + o is filter f0 + f at output row oi + o.
// With F = kMR, OG = 1 this is the plain tile. Fewer filters stack
// output rows instead, so 2 filters still fill 8 accumulators; each
// element's tap chain is the same either way.
template <int64_t F, int64_t OG>
void ConvDirectRows(const DirectBlock& blk, int64_t f0) {
  static_assert(F * OG <= kMR);
  const ConvImageView<float>& b = *blk.b;
  const int64_t n = b.N();
  const float* panel = blk.ap + (f0 / kMR) * blk.kc * kMR;
  const int64_t filters = std::min(F, blk.m - f0);
  for (int64_t oi = 0; oi < b.oh; oi += OG) {
    const int64_t out_rows = std::min(OG, b.oh - oi);
    // Output rows past the last repeat it and are discarded.
    const float* origin[OG];
    for (int64_t o = 0; o < OG; ++o)
      origin[o] = blk.padded + (oi + std::min(o, out_rows - 1)) * blk.ws;
    for (int64_t j0 = 0; j0 < b.ow; j0 += kNR) {
      const int64_t cols = std::min(kNR, b.ow - j0);
      VecLane acc[F * OG][kLanesPerRow] = {};
      for (int64_t idx = 0; idx < blk.kc; ++idx) {
        const float* __restrict a_slice = panel + idx * kMR;
        VecLane b_lane[OG][kLanesPerRow];
        for (int64_t o = 0; o < OG; ++o) {
          const float* __restrict bsrc = origin[o] + blk.off[idx] + j0;
          for (int64_t l = 0; l < kLanesPerRow; ++l)
            b_lane[o][l] = LoadLane(bsrc + l * kLane);
        }
        for (int64_t f = 0; f < F; ++f) {
          const VecLane avv = a_slice[f] - VecLane{};  // broadcast
          for (int64_t o = 0; o < OG; ++o)
            for (int64_t l = 0; l < kLanesPerRow; ++l)
              acc[f * OG + o][l] += avv * b_lane[o][l];
        }
      }
      for (int64_t f = 0; f < filters; ++f) {
        for (int64_t o = 0; o < out_rows; ++o) {
          const int64_t col0 = (oi + o) * b.ow + j0;
          float* c_row = blk.c + (f0 + f) * n + col0;
          MergeRow(acc[f * OG + o], c_row, cols, blk.beta_eff);
          if (blk.ep != nullptr) {
            ApplyEpilogueRow(c_row, cols, blk.ep->row_bias, f0 + f,
                             blk.ep->col_bias != nullptr
                                 ? blk.ep->col_bias + col0
                                 : nullptr,
                             *blk.ep);
          }
        }
      }
    }
  }
}

// m <= kMR / 2 filters in one tile of kMR / m output rows each.
template <int64_t F = 1>
void ConvDirectFewFilters(const DirectBlock& blk) {
  if constexpr (F <= kMR / 2) {
    if (blk.m == F) {
      ConvDirectRows<F, kMR / F>(blk, 0);
    } else {
      ConvDirectFewFilters<F + 1>(blk);
    }
  }
}

void ConvDirectKernel(const float* a, const ConvImageView<float>& b, float* c,
                      int64_t m, const GemmOptions& opts) {
  const int64_t k = b.K();
  const PaddedImage img = StagePaddedImage(b);
  const OperandView av{a, nullptr, m, k, b.N(), opts.trans_a, false};
  const int64_t mtiles = CeilDiv(m, kMR);
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    float* ap = ThreadLocalWorkspace(kWorkspaceGemmPackA, mtiles * kMR * kc);
    PackABlock(av, 0, m, pc, kc, ap);
    // Per-tap base offset into the padded image; with stride 1 the
    // output-row origin then advances by one padded row per oi.
    int32_t off[kKC];
    for (int64_t idx = 0; idx < kc; ++idx) {
      off[idx] = static_cast<int32_t>(img.Offset(pc + idx));
    }
    const DirectBlock blk{ap,       off,  kc,
                          img.data, img.ws, &b,
                          c,        m,    (pc == 0) ? opts.beta : 1.0f,
                          (pc + kc == k) ? opts.epilogue : nullptr};
    if (m <= kMR / 2) {
      ConvDirectFewFilters(blk);
    } else {
      for (int64_t f0 = 0; f0 < m; f0 += kMR) ConvDirectRows<kMR, 1>(blk, f0);
    }
  }
}

// C := beta*C for the degenerate k == 0 case.
void ScaleC(float* c, int64_t count, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + count, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < count; ++i) c[i] *= beta;
  }
}

// Shared blocked dispatch for Gemm and GemmConv once the view is built
// and the reference fallback has been ruled out.
void GemmBlocked(const OperandView& v, float* c, const GemmOptions& opts,
                 int64_t work) {
  const int64_t mt = CeilDiv(v.m, kMC);
  const int64_t nt = CeilDiv(v.n, kNC);
  const int64_t tile_work = work / (mt * nt);
  ThreadPool& pool = ThreadPool::Global();
  if (pool.Chunks(mt * nt, tile_work) <= 1) {
    GEO_OBS_COUNT("gemm.path.blocked_serial", 1);
    GemmRegion(v, c, opts.beta, 0, v.m, 0, v.n, opts.epilogue);
    return;
  }
  GEO_OBS_COUNT("gemm.path.blocked_parallel", 1);
  const auto tile = [&](int64_t t) {
    const int64_t ti = t / nt;
    const int64_t tj = t % nt;
    GemmRegion(v, c, opts.beta, ti * kMC, std::min(v.m, (ti + 1) * kMC),
               tj * kNC, std::min(v.n, (tj + 1) * kNC), opts.epilogue);
  };
  pool.ParallelFor(mt * nt, tile, tile_work);
}

}  // namespace

GemmKernelShape GemmKernelInfo() {
#if defined(__FMA__)
  constexpr bool kFma = true;
#else
  constexpr bool kFma = false;
#endif
  return {kLane, kMR, kNR, kKC, kFma};
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const GemmOptions& opts) {
  if (m <= 0 || n <= 0) return;
  GEO_OBS_COUNT("gemm.calls", 1);
  if (k <= 0) {
    ScaleC(c, m * n, opts.beta);
    if (opts.epilogue != nullptr) {
      for (int64_t i = 0; i < m; ++i)
        ApplyEpilogueRow(c + i * n, n, opts.epilogue->row_bias, i,
                         opts.epilogue->col_bias, *opts.epilogue);
    }
    return;
  }
  const int64_t work = m * n * k;
  GEO_OBS_COUNT("gemm.flops", 2 * work);
  if (work < kBlockedMinWork) {
    GEO_OBS_COUNT("gemm.path.ref", 1);
    ReferenceGemm(a, b, c, m, k, n, opts);
    return;
  }
  const OperandView v{a, b, m, k, n, opts.trans_a, opts.trans_b};
  GemmBlocked(v, c, opts, work);
}

void GemmConv(const float* a, const ConvImageView<float>& b, float* c,
              int64_t m, const GemmOptions& opts) {
  const int64_t k = b.K();
  const int64_t n = b.N();
  if (m <= 0 || n <= 0) return;
  GEO_OBS_COUNT("gemm.calls", 1);
  GEO_OBS_COUNT("fusion.conv_implicit", 1);
  const int64_t work = m * n * k;
  GEO_OBS_COUNT("gemm.flops", 2 * work);
  if (work < kBlockedMinWork) {
    // Match Gemm below kBlockedMinWork bitwise: materialize the patch
    // matrix and run the same reference loop (which applies the
    // epilogue as separate post-passes), so GemmConv equals im2col +
    // Gemm at every size.
    GEO_OBS_COUNT("gemm.path.ref", 1);
    float* cols = ThreadLocalWorkspace(kWorkspaceIm2Col, k * n);
    for (int64_t p = 0; p < k; ++p) b.GatherRow(p, 0, n, cols + p * n);
    ReferenceGemm(a, cols, c, m, k, n, opts);
    return;
  }
  if (b.stride == 1) {
    GEO_OBS_COUNT("gemm.path.conv_direct", 1);
    ConvDirectKernel(a, b, c, m, opts);
    return;
  }
  const OperandView v{a, nullptr, m, k, n, opts.trans_a, false, &b};
  GemmBlocked(v, c, opts, work);
}

// Weight gradient for fewer filters than a tile has columns, which the
// layout below would spread over 2 of 16 lanes for ST-ResNet's 16→2
// output convs. Here the channels go on the lanes: the tile is F filters
// (their g broadcast) × NL lanes of kLane channels at one tap (ki, kj),
// loaded from a channels-last padded copy of the sample, where output
// position (oi, oj) reads lane (ki, kj, cg) at
// hwc[((oi + ki)·pw + oj + kj)·cp + cg·kLane]. Each gw element still
// runs its chain over the output positions in order, split at kKC, with
// each block's sum added into gw; fma(g, x, acc) equals fma(x, g, acc),
// so the values are those of the filter-lane layout.
template <int64_t F, int64_t NL>
void WeightGradChannelTile(const float* g, int64_t n, const float* hwc,
                           const int32_t* pos, int64_t pc, int64_t kc,
                           int64_t m, int64_t f0, const int32_t (&lane_off)[NL],
                           VecLane (&acc)[F][NL]) {
  const float* grow[F];
  for (int64_t f = 0; f < F; ++f) {
    // Rows past the last filter repeat it and are discarded.
    grow[f] = g + std::min(f0 + f, m - 1) * n + pc;
  }
  for (int64_t idx = 0; idx < kc; ++idx) {
    const float* __restrict base = hwc + pos[idx];
    VecLane b_lane[NL];
    for (int64_t l = 0; l < NL; ++l) b_lane[l] = LoadLane(base + lane_off[l]);
    for (int64_t f = 0; f < F; ++f) {
      const VecLane av = grow[f][idx] - VecLane{};  // broadcast
      for (int64_t l = 0; l < NL; ++l) acc[f][l] += av * b_lane[l];
    }
  }
}

template <int64_t F, int64_t NL>
void ConvBackwardWeightChannelLanes(const float* g,
                                    const ConvImageView<float>& b, float* gw,
                                    int64_t m) {
  const int64_t k = b.K();
  const int64_t n = b.N();
  const int64_t taps = b.kh * b.kw;
  const int64_t ph = b.h + 2 * b.pad;
  const int64_t pw = b.w + 2 * b.pad;
  const int64_t groups = CeilDiv(b.c, kLane);
  const int64_t cp = groups * kLane;
  float* hwc = ThreadLocalWorkspace(kWorkspaceIm2Col, ph * pw * cp);
  std::fill(hwc, hwc + ph * pw * cp, 0.0f);
  for (int64_t ii = 0; ii < b.h; ++ii) {
    for (int64_t jj = 0; jj < b.w; ++jj) {
      float* dst = hwc + ((ii + b.pad) * pw + jj + b.pad) * cp;
      for (int64_t ci = 0; ci < b.c; ++ci) dst[ci] = b.x[(ci * b.h + ii) * b.w + jj];
    }
  }
  const int64_t lanes = taps * groups;  // lane q is tap q / groups
  const auto lane_offset = [&](int64_t q) {
    const int64_t t = q / groups;
    return static_cast<int32_t>(((t / b.kw) * pw + t % b.kw) * cp +
                                (q % groups) * kLane);
  };
  const int64_t ltiles = CeilDiv(lanes, NL);
  const int64_t tiles = CeilDiv(m, F) * ltiles;
  const auto tile_range = [&](int64_t t0, int64_t t1) {
    int32_t pos[kKC];  // channels-last offset of each output position
    for (int64_t pc = 0; pc < n; pc += kKC) {
      const int64_t kc = std::min(kKC, n - pc);
      for (int64_t idx = 0, oi = pc / b.ow, oj = pc % b.ow; idx < kc; ++idx) {
        pos[idx] = static_cast<int32_t>((oi * pw + oj) * cp);
        if (++oj == b.ow) {
          oj = 0;
          ++oi;
        }
      }
      for (int64_t ti = t0; ti < t1; ++ti) {
        const int64_t f0 = ti / ltiles * F;
        const int64_t q0 = ti % ltiles * NL;
        int32_t lane_off[NL];
        for (int64_t l = 0; l < NL; ++l) {
          // Lanes past the last repeat it and are discarded.
          lane_off[l] = lane_offset(std::min(q0 + l, lanes - 1));
        }
        VecLane acc[F][NL] = {};
        WeightGradChannelTile<F, NL>(g, n, hwc, pos, pc, kc, m, f0, lane_off,
                                     acc);
        for (int64_t f = 0; f < std::min(F, m - f0); ++f) {
          for (int64_t l = 0; l < std::min(NL, lanes - q0); ++l) {
            alignas(64) float spill[kLane];
            __builtin_memcpy(spill, &acc[f][l], sizeof(VecLane));
            const int64_t t = (q0 + l) / groups;
            const int64_t c0 = (q0 + l) % groups * kLane;
            float* __restrict dst = gw + (f0 + f) * k + c0 * taps + t;
            for (int64_t e = 0; e < std::min(kLane, b.c - c0); ++e)
              dst[e * taps] = dst[e * taps] + spill[e];
          }
        }
      }
    }
  };
  ThreadPool::Global().ParallelForRange(tiles, tile_range, m * n * k / tiles);
}

// m <= kMR / 2 filters fill a tile's accumulators with more lanes.
template <int64_t F = 1>
void ConvBackwardWeightFewFilters(const float* g, const ConvImageView<float>& b,
                                  float* gw, int64_t m) {
  if constexpr (F <= kMR / 2) {
    if (m == F) {
      ConvBackwardWeightChannelLanes<F, kTileLanes / F>(g, b, gw, m);
    } else {
      ConvBackwardWeightFewFilters<F + 1>(g, b, gw, m);
    }
  }
}

// Weight gradient as its transpose, gwᵀ (K taps × m filters): the
// register tile is kMR taps × kNR filters, its rows broadcast straight
// from the padded image and its lanes read from gᵀ, so neither the
// patch matrix nor a transposed B pack is built. The K dimension is the
// output positions in order, split at kKC with each block's chain
// started from zero and then added into gw — the first-block /
// later-block merge of the beta = 1 blocked Gemm. fma(x, g, acc) equals
// fma(g, x, acc), so every gw element gets the same rounding steps.
// Fewer filters than kNR take the channel-lane layout above when its
// lanes fill better.
void ConvBackwardWeight(const float* g, const ConvImageView<float>& b,
                        float* gw, int64_t m) {
  const int64_t k = b.K();
  const int64_t n = b.N();
  GEO_CHECK_EQ(b.stride, 1);
  GEO_OBS_COUNT("gemm.calls", 1);
  GEO_OBS_COUNT("gemm.flops", 2 * m * n * k);
  GEO_OBS_COUNT("gemm.path.conv_backward_direct", 1);
  if (m < kNR && b.c * kNR > m * CeilDiv(b.c, kLane) * kLane) {
    if (m <= kMR / 2) {
      ConvBackwardWeightFewFilters(g, b, gw, m);
    } else {
      ConvBackwardWeightChannelLanes<kMR, kLanesPerRow>(g, b, gw, m);
    }
    return;
  }
  const PaddedImage img = StagePaddedImage(b);
  // gᵀ, (n × mp): one contiguous row of filters per output position,
  // filters past m zero.
  const int64_t mp = CeilDiv(m, kNR) * kNR;
  float* gt = ThreadLocalWorkspace(kWorkspaceConvCols, n * mp);
  for (int64_t j = 0; j < n; ++j) {
    float* row = gt + j * mp;
    for (int64_t fi = 0; fi < m; ++fi) row[fi] = g[fi * n + j];
    for (int64_t fi = m; fi < mp; ++fi) row[fi] = 0.0f;
  }
  const int64_t tiles = CeilDiv(k, kMR);
  const auto tile_range = [&](int64_t t0, int64_t t1) {
    int32_t pos[kKC];  // padded-image offset of each output position
    for (int64_t pc = 0; pc < n; pc += kKC) {
      const int64_t kc = std::min(kKC, n - pc);
      for (int64_t idx = 0, oi = pc / b.ow, oj = pc % b.ow; idx < kc; ++idx) {
        pos[idx] = static_cast<int32_t>(oi * img.ws + oj);
        if (++oj == b.ow) {
          oj = 0;
          ++oi;
        }
      }
      for (int64_t ti = t0; ti < t1; ++ti) {
        const int64_t rows = std::min(kMR, k - ti * kMR);
        const float* tap[kMR];
        tap[0] = img.data + img.Offset(ti * kMR);
        for (int64_t r = 1; r < kMR; ++r) {
          // Rows past the last tap repeat it and are discarded.
          tap[r] = r < rows ? img.data + img.Offset(ti * kMR + r) : tap[r - 1];
        }
        for (int64_t fj = 0; fj < m; fj += kNR) {
          const int64_t cols = std::min(kNR, m - fj);
          const float* gcol = gt + pc * mp + fj;
          VecLane acc[kMR][kLanesPerRow] = {};
          for (int64_t idx = 0; idx < kc; ++idx) {
            const float* __restrict b_slice = gcol + idx * mp;
            VecLane b_lane[kLanesPerRow];
            for (int64_t l = 0; l < kLanesPerRow; ++l)
              b_lane[l] = LoadLane(b_slice + l * kLane);
            const int32_t o = pos[idx];
            for (int64_t r = 0; r < kMR; ++r) {
              const VecLane av = tap[r][o] - VecLane{};  // broadcast
              for (int64_t l = 0; l < kLanesPerRow; ++l)
                acc[r][l] += av * b_lane[l];
            }
          }
          alignas(64) float spill[kMR * kNR];
          for (int64_t r = 0; r < kMR; ++r)
            __builtin_memcpy(spill + r * kNR, acc[r], sizeof(acc[r]));
          for (int64_t r = 0; r < rows; ++r) {
            float* __restrict dst = gw + fj * k + ti * kMR + r;
            for (int64_t jf = 0; jf < cols; ++jf)
              dst[jf * k] = dst[jf * k] + spill[r * kNR + jf];
          }
        }
      }
    }
  };
  ThreadPool::Global().ParallelForRange(tiles, tile_range, m * n * k / tiles);
}

int64_t ConvBackwardInputWSize(const ConvImageView<float>& b, int64_t m) {
  return b.kh * b.kw * CeilDiv(b.c, kMR) * kMR * m;
}

// Panel (tap kk, channel tile ct) holds, for each filter fi in order,
// the kMR weights w[fi][(ct·kMR + r, kk)]; channels past c are zero.
void PackConvBackwardInputW(const float* w, const ConvImageView<float>& b,
                            int64_t m, float* packed) {
  const int64_t taps = b.kh * b.kw;
  const int64_t k = b.K();
  for (int64_t kk = 0; kk < taps; ++kk) {
    for (int64_t c0 = 0; c0 < b.c; c0 += kMR) {
      for (int64_t fi = 0; fi < m; ++fi) {
        for (int64_t r = 0; r < kMR; ++r) {
          const int64_t ci = c0 + r;
          *packed++ = ci < b.c ? w[fi * k + ci * taps + kk] : 0.0f;
        }
      }
    }
  }
}

namespace {

// acc += the filter chain [f0, f1) of one input-gradient tile: per
// filter, the panel's F channel weights broadcast against NL lanes of
// each of the tile's OG rows of g.
template <int64_t F, int64_t OG, int64_t NL>
inline void FilterChain(const float* panel, const float* const (&g)[OG],
                        int64_t n, int64_t f0, int64_t f1,
                        VecLane (&acc)[F * OG][NL]) {
  for (int64_t fi = f0; fi < f1; ++fi) {
    const float* __restrict a_slice = panel + fi * kMR;
    VecLane b_lane[OG][NL];
    for (int64_t o = 0; o < OG; ++o) {
      const float* __restrict bsrc = g[o] + fi * n;
      for (int64_t l = 0; l < NL; ++l) b_lane[o][l] = LoadLane(bsrc + l * kLane);
    }
    for (int64_t f = 0; f < F; ++f) {
      const VecLane av = a_slice[f] - VecLane{};  // broadcast
      for (int64_t o = 0; o < OG; ++o)
        for (int64_t l = 0; l < NL; ++l) acc[f * OG + o][l] += av * b_lane[o][l];
    }
  }
}

// One input-gradient tile of F channels × OG output rows × NL lanes of
// output columns: the filter chain split at kKC (later blocks added to
// the first, as the blocked Gemm merges them), then added into the
// `cols` leading columns of the rows dst[o], whose channel rows are
// `plane` floats apart. Only the first `channels` × `out_rows` land.
template <int64_t F, int64_t OG, int64_t NL>
void InputGradTile(const float* panel, const float* const (&g)[OG], int64_t n,
                   int64_t m, float* const (&dst)[OG], int64_t plane,
                   int64_t channels, int64_t out_rows, int64_t cols) {
  VecLane t[F * OG][NL] = {};
  FilterChain<F, OG, NL>(panel, g, n, 0, std::min(kKC, m), t);
  for (int64_t pc = kKC; pc < m; pc += kKC) {
    VecLane acc[F * OG][NL] = {};
    FilterChain<F, OG, NL>(panel, g, n, pc, std::min(m, pc + kKC), acc);
    for (int64_t r = 0; r < F * OG; ++r)
      for (int64_t l = 0; l < NL; ++l) t[r][l] = t[r][l] + acc[r][l];
  }
  for (int64_t f = 0; f < channels; ++f) {
    for (int64_t o = 0; o < out_rows; ++o) {
      float* __restrict d = dst[o] + f * plane;
      const VecLane(&row)[NL] = t[f * OG + o];
      if (cols == NL * kLane) {
        for (int64_t l = 0; l < NL; ++l) {
          const VecLane sum = LoadLane(d + l * kLane) + row[l];
          __builtin_memcpy(d + l * kLane, &sum, sizeof(VecLane));
        }
      } else {
        alignas(64) float spill[NL * kLane];
        __builtin_memcpy(spill, row, sizeof(row));
        for (int64_t j = 0; j < cols; ++j) d[j] = d[j] + spill[j];
      }
    }
  }
}

// Input-gradient geometry shared by the channel tiles: g with slack
// columns, the column-padded image gradient and its strides.
struct InputGradPlan {
  const float* w_packed;
  const float* gs;
  const ConvImageView<float>* b;
  int64_t m;
  float* gxp;
  int64_t ctiles, gws, plane;
};

// Channel tile ct, F channels (kMR, or all of them when c <= kMR / 2)
// × OG output rows per register tile, F·OG <= kMR. Per kernel tap
// (ki, kj), in order, every tile adds into disjoint image-gradient
// elements, so stacking output rows changes no element's order.
template <int64_t F, int64_t OG>
void InputGradChannels(const InputGradPlan& plan, int64_t ct) {
  static_assert(F * OG <= kMR);
  const ConvImageView<float>& b = *plan.b;
  const int64_t n = b.N();
  const int64_t channels = std::min(F, b.c - ct * kMR);
  float* gx_tile = plan.gxp + ct * kMR * plan.plane;
  for (int64_t ki = 0; ki < b.kh; ++ki) {
    const int64_t oi0 = std::max<int64_t>(0, b.pad - ki);
    const int64_t oi1 = std::min(b.oh, b.h + b.pad - ki);
    for (int64_t kj = 0; kj < b.kw; ++kj) {
      const float* panel =
          plan.w_packed + ((ki * b.kw + kj) * plan.ctiles + ct) * plan.m * kMR;
      for (int64_t oi = oi0; oi < oi1; oi += OG) {
        const int64_t out_rows = std::min(OG, oi1 - oi);
        const float* gsrc[OG];
        float* dst[OG];
        for (int64_t j0 = 0; j0 < b.ow; j0 += kNR) {
          for (int64_t o = 0; o < OG; ++o) {
            // Rows past the last repeat it and are discarded.
            const int64_t r = oi + std::min(o, out_rows - 1);
            gsrc[o] = plan.gs + r * b.ow + j0;
            dst[o] = gx_tile + (r + ki - b.pad) * plan.gws + j0 + kj;
          }
          // Lanes past the last output column are not taps at all: a
          // tail tile computes one lane when that covers it and writes
          // back only its real columns.
          const int64_t cols = std::min(kNR, b.ow - j0);
          if (cols > kLane) {
            InputGradTile<F, OG, kLanesPerRow>(panel, gsrc, n, plan.m, dst,
                                               plan.plane, channels, out_rows,
                                               cols);
          } else {
            InputGradTile<F, OG, 1>(panel, gsrc, n, plan.m, dst, plan.plane,
                                    channels, out_rows, cols);
          }
        }
      }
    }
  }
}

// c <= kMR / 2 channels in one tile of kMR / c output rows each.
template <int64_t F = 1>
void InputGradFewChannels(const InputGradPlan& plan) {
  if constexpr (F <= kMR / 2) {
    if (plan.b->c == F) {
      InputGradChannels<F, kMR / F>(plan, 0);
    } else {
      InputGradFewChannels<F + 1>(plan);
    }
  }
}

}  // namespace

// Input gradient without the column matrix. Per channel tile, the loop
// runs kernel taps (ki, kj) in order, so each grad_x element receives
// its terms in col2im's order, starting from zero; per tap, a tile of
// channels × kNR output columns of one output row (or of several rows,
// for few channels) is built in registers as the exact beta = 0 chain
// over filters (blocks past the first kKC filters added to it, as the
// blocked Gemm merges them) and added straight into a column-padded
// copy of the image gradient. Output rows whose tap leaves the image
// are skipped; columns whose tap leaves it land in the padding, which is
// dropped. Channel tiles are disjoint, so they split across the pool
// freely.
void ConvBackwardInput(const float* w_packed, const float* g,
                       const ConvImageView<float>& b, float* grad_x,
                       int64_t m) {
  const int64_t n = b.N();
  GEO_CHECK_EQ(b.stride, 1);
  GEO_OBS_COUNT("gemm.calls", 1);
  GEO_OBS_COUNT("gemm.flops", 2 * m * n * b.K());
  GEO_OBS_COUNT("gemm.path.conv_backward_direct", 1);
  // g with kNR floats of slack: a row's last lane loads may run past it.
  float* gs = ThreadLocalWorkspace(kWorkspaceConvCols, m * n + kNR);
  __builtin_memcpy(gs, g, static_cast<size_t>(m * n) * sizeof(float));
  std::fill(gs + m * n, gs + m * n + kNR, 0.0f);
  const int64_t ctiles = CeilDiv(b.c, kMR);
  const int64_t gws = b.w + 2 * b.pad;  // padded image-gradient row
  const int64_t plane = b.h * gws;
  float* gxp = ThreadLocalWorkspace(kWorkspaceIm2Col, ctiles * kMR * plane);
  const InputGradPlan plan{w_packed, gs, &b, m, gxp, ctiles, gws, plane};
  const auto tile_range = [&](int64_t t0, int64_t t1) {
    std::fill(gxp + t0 * kMR * plane, gxp + t1 * kMR * plane, 0.0f);
    for (int64_t ct = t0; ct < t1; ++ct) {
      if (b.c <= kMR / 2) {
        InputGradFewChannels(plan);
      } else {
        InputGradChannels<kMR, 1>(plan, ct);
      }
    }
    for (int64_t ci = t0 * kMR; ci < std::min(b.c, t1 * kMR); ++ci) {
      for (int64_t ii = 0; ii < b.h; ++ii) {
        __builtin_memcpy(grad_x + (ci * b.h + ii) * b.w,
                         gxp + ci * plane + ii * gws + b.pad,
                         static_cast<size_t>(b.w) * sizeof(float));
      }
    }
  };
  ThreadPool::Global().ParallelForRange(ctiles, tile_range,
                                        m * n * b.K() / ctiles);
}

}  // namespace geotorch::tensor
