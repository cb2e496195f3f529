#ifndef GEOTORCH_TENSOR_SERIALIZE_H_
#define GEOTORCH_TENSOR_SERIALIZE_H_

#include <string>

#include "core/status.h"
#include "tensor/tensor.h"

namespace geotorch::tensor {

/// Writes a tensor to a compact binary file ("GTEN" magic, rank,
/// int64 dims, float32 payload). Used to persist preprocessed
/// spatiotemporal tensors to disk, the final step of the paper's
/// preprocessing pipeline (Section III-B1). Like WriteCheckpoint, it
/// writes a sibling temp file and renames it over `path`, so a reader
/// never sees a torn tensor.
Status SaveTensor(const std::string& path, const Tensor& t);

/// Reads a tensor written by SaveTensor.
Result<Tensor> LoadTensor(const std::string& path);

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_SERIALIZE_H_
