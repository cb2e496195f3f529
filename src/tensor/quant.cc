#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

namespace geotorch::tensor {

float AbsMax(const float* x, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

float SymmetricScale(float absmax) {
  if (!(absmax > 0.0f) || !std::isfinite(absmax)) return 1.0f;
  return absmax / 127.0f;
}

void QuantizeInt8(const float* x, int64_t n, float scale, int8_t* out) {
  const float inv = 1.0f / scale;
  for (int64_t i = 0; i < n; ++i) {
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
