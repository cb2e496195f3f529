#ifndef GEOTORCH_TESTS_GEMM_CHUNKS_H_
#define GEOTORCH_TESTS_GEMM_CHUNKS_H_

#include <cstdint>
#include <cstdio>

#include "core/thread_pool.h"
#include "tensor/gemm.h"

namespace geotorch {

/// How many chunks the global pool splits an m×k×n GEMM's macro-tile
/// grid into on the calling thread, asked the way the f32 and int8
/// dispatchers ask it. Tests that mean to race the parallel GEMM assert
/// this is above 1, so a change to the pool's fan-out rule cannot
/// quietly make them serial.
inline int64_t GemmChunks(int64_t m, int64_t k, int64_t n) {
  using tensor::gemm_internal::kMC;
  using tensor::gemm_internal::kNC;
  const int64_t tiles = ((m + kMC - 1) / kMC) * ((n + kNC - 1) / kNC);
  return ThreadPool::Global().Chunks(tiles, m * n * k / tiles);
}

/// For the GEMM race tests: true when the shape fans out; otherwise
/// false, with a line on stderr naming the shape.
inline bool RunsPooled(int64_t m, int64_t k, int64_t n) {
  if (GemmChunks(m, k, n) > 1) return true;
  std::fprintf(stderr, "FAIL %lldx%lldx%lld runs as one chunk\n",
               static_cast<long long>(m), static_cast<long long>(k),
               static_cast<long long>(n));
  return false;
}

}  // namespace geotorch

#endif  // GEOTORCH_TESTS_GEMM_CHUNKS_H_
