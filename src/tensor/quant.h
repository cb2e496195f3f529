#ifndef GEOTORCH_TENSOR_QUANT_H_
#define GEOTORCH_TENSOR_QUANT_H_

#include <cstdint>

namespace geotorch::tensor {

/// Int8 symmetric quantization helpers for the low-precision inference
/// path (DESIGN.md §10). All conversions are element-wise and
/// deterministic.

/// max(|x|) over n elements; 0 for empty input.
float AbsMax(const float* x, int64_t n);

/// Symmetric (zero_point = 0) scale mapping [-absmax, absmax] onto
/// [-127, 127]. Zero / non-finite absmax degrades to scale 1 so an
/// all-zero tensor quantizes to all-zero rather than dividing by zero.
float SymmetricScale(float absmax);

/// q = clamp(round(x / scale), -127, 127), round half to even (lrintf
/// under the default rounding mode). Dequantization is q * scale, so
/// per-element |x - q*scale| <= scale/2 whenever |x| <= 127*scale.
void QuantizeInt8(const float* x, int64_t n, float scale, int8_t* out);

/// Per-channel symmetric quantization of a (rows, cols) row-major
/// matrix: one scale per row (QuantizeRowsInt8) or per column
/// (QuantizeColsInt8). `scales` receives rows (resp. cols) entries.
void QuantizeRowsInt8(const float* w, int64_t rows, int64_t cols, int8_t* out,
                      float* scales);
void QuantizeColsInt8(const float* w, int64_t rows, int64_t cols, int8_t* out,
                      float* scales);

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_QUANT_H_
