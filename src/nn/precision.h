#ifndef GEOTORCH_NN_PRECISION_H_
#define GEOTORCH_NN_PRECISION_H_

#include <string>

namespace geotorch::nn {

/// Numeric mode for the eval-time forward pass of Linear / Conv2d
/// (DESIGN.md §10). Training always runs f32 regardless of this
/// setting; low-precision kernels engage only when the module is in
/// eval mode with gradients disabled.
enum class Precision {
  kF32,   ///< full-precision f32 GEMM (default)
  kInt8,  ///< int8 symmetric-quantized GEMM, i32 accumulation
};

inline const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kF32:
      return "f32";
    case Precision::kInt8:
      return "int8";
  }
  return "f32";
}

/// Parses "f32" / "int8" (the GEOTORCH_SERVE_PRECISION
/// values). Returns false — leaving *out untouched — on anything else.
inline bool ParsePrecision(const std::string& s, Precision* out) {
  if (s == "f32" || s == "fp32" || s == "float32") {
    *out = Precision::kF32;
    return true;
  }
  if (s == "int8" || s == "i8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

}  // namespace geotorch::nn

#endif  // GEOTORCH_NN_PRECISION_H_
