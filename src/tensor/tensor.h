#ifndef GEOTORCH_TENSOR_TENSOR_H_
#define GEOTORCH_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tensor/shape.h"
#include "tensor/storage.h"

namespace geotorch::tensor {

/// A dense, contiguous, row-major float32 tensor with shared storage.
///
/// Copying a Tensor is cheap (shares storage); Clone() deep-copies.
/// Reshape() returns a tensor sharing the same storage. All ops in
/// ops.h / conv.h produce freshly allocated outputs.
class Tensor {
 public:
  /// An empty (rank-1, zero-element) tensor.
  Tensor();
  /// Zero-initialized tensor of the given shape (storage may be a
  /// recycled pool block, so zeroing is explicit, not incidental).
  explicit Tensor(Shape shape);

  // --- Factories -----------------------------------------------------
  static Tensor Zeros(Shape shape);
  /// Tensor whose contents are NOT initialized. Only for call sites
  /// that overwrite every element before reading any — with pooled
  /// storage the buffer holds stale bytes from a previous tensor.
  static Tensor Uninitialized(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// Values copied from `values`; size must match the shape.
  static Tensor FromVector(Shape shape, std::vector<float> values);
  /// A rank-0-like scalar stored as shape {1}.
  static Tensor Scalar(float value);
  /// {0, 1, ..., n-1} as a rank-1 tensor.
  static Tensor Arange(int64_t n);
  /// I.i.d. N(mean, stddev) entries.
  static Tensor Randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// I.i.d. U[lo, hi) entries.
  static Tensor Rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  // --- Introspection ---------------------------------------------------
  const Shape& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  /// Size of dimension `dim`; negative indices count from the back.
  int64_t size(int dim) const;
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return storage_->data() + offset_; }
  const float* data() const { return storage_->data() + offset_; }

  /// Element access by multi-index (bounds-checked). For tests and
  /// small-scale code; kernels use data() directly.
  float& at(std::initializer_list<int64_t> index);
  float at(std::initializer_list<int64_t> index) const;

  /// Flat element access (bounds-checked).
  float& flat(int64_t i);
  float flat(int64_t i) const;

  // --- Storage-sharing views ------------------------------------------
  /// Same elements, new shape (must preserve numel). Shares storage.
  /// One dimension may be -1 (inferred).
  Tensor Reshape(Shape shape) const;
  /// Deep copy with its own storage.
  Tensor Clone() const;
  /// True when both tensors share the same underlying buffer.
  bool SharesStorageWith(const Tensor& other) const {
    return storage_ == other.storage_;
  }
  /// True when no other Tensor shares this one's buffer, so the holder
  /// of this handle may take the buffer over instead of copying it.
  bool HoldsStorageAlone() const { return storage_.use_count() == 1; }

  // --- Mutation ---------------------------------------------------------
  void Fill(float value);
  /// this += other (shapes must match exactly). In-place; used for
  /// gradient accumulation.
  void AddInPlace(const Tensor& other);
  /// this *= s.
  void ScaleInPlace(float s);

  // --- Conversion --------------------------------------------------------
  std::vector<float> ToVector() const;
  /// Compact human-readable rendering (shape + up to `max_values` values).
  std::string ToString(int64_t max_values = 16) const;

 private:
  std::shared_ptr<Storage> storage_;
  int64_t offset_ = 0;
  Shape shape_;
  int64_t numel_ = 0;
};

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_TENSOR_H_
