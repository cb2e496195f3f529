#ifndef GEOTORCH_TENSOR_OPS_H_
#define GEOTORCH_TENSOR_OPS_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace geotorch::tensor {

// ---------------------------------------------------------------------------
// Elementwise binary ops (NumPy broadcasting). Each returns a new tensor.
// ---------------------------------------------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
/// max(a, b) elementwise with broadcasting.
Tensor Maximum(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
/// a^p elementwise (p is a scalar exponent).
Tensor PowScalar(const Tensor& a, float p);

// ---------------------------------------------------------------------------
// Elementwise unary ops.
// ---------------------------------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Relu(const Tensor& a);
/// x for x > 0, slope*x otherwise.
Tensor LeakyRelu(const Tensor& a, float slope = 0.01f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
/// Clamps every element into [lo, hi].
Tensor Clamp(const Tensor& a, float lo, float hi);
/// Applies an arbitrary scalar function (serial; for tests and small data).
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

// ---------------------------------------------------------------------------
// In-place elementwise kernels. Each mutates its first argument, reusing
// its storage instead of allocating an output — the workhorses of the
// autograd backward pass and the fused optimizer steps. Shapes must
// match exactly (no broadcasting); all are order-independent per
// element, so parallel execution stays bitwise deterministic.
// ---------------------------------------------------------------------------
/// a *= b.
void MulInPlace(Tensor& a, const Tensor& b);
/// a = -a.
void NegInPlace(Tensor& a);
/// a += s * b.
void AddScaledInPlace(Tensor& a, const Tensor& b, float s);
/// g *= (x > 0 ? 1 : slope) — the (Leaky)ReLU backward mask, applied
/// without materializing the mask tensor.
void ReluMaskInPlace(Tensor& g, const Tensor& x, float slope = 0.0f);
/// g *= y * (1 - y) where y = sigmoid(x) (the forward output).
void SigmoidGradInPlace(Tensor& g, const Tensor& y);
/// g *= 1 - y^2 where y = tanh(x) (the forward output).
void TanhGradInPlace(Tensor& g, const Tensor& y);

/// Materializes `a` broadcast to `shape` (NumPy rules). Unlike the ops
/// above this allocates, but it replaces the old Add(Zeros(shape), a)
/// idiom with a single strided copy.
Tensor BroadcastTo(const Tensor& a, const Shape& shape);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------
float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

/// Sum over the given dimension. keepdim retains a size-1 dim.
Tensor Sum(const Tensor& a, int dim, bool keepdim = false);
Tensor Mean(const Tensor& a, int dim, bool keepdim = false);

/// Reduces `a` (by summation) to `target` shape, inverting broadcasting.
/// Used by autograd to fold gradients of broadcast operands.
Tensor SumToShape(Tensor a, const Shape& target);

/// Index of the maximum along `dim` (ties pick the first). Output drops
/// `dim`; values are exact integers stored as float.
Tensor Argmax(const Tensor& a, int dim);

// ---------------------------------------------------------------------------
// Linear algebra and layout.
// ---------------------------------------------------------------------------
/// (m,k) x (k,n) -> (m,n). Dispatches through the blocked GEMM kernel
/// (tensor/gemm.h) on the current Device backend.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// MatMul with either operand logically transposed — the packed kernel
/// consumes the transposed layout directly, so no transpose is
/// materialized. Used by autograd's MatMul backward.
Tensor MatMulT(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b);
/// 2-D transpose (cache-blocked).
Tensor Transpose2d(const Tensor& a);
/// General dimension permutation: out.shape[i] = in.shape[perm[i]].
Tensor Permute(const Tensor& a, const std::vector<int>& perm);

/// Concatenates along `dim`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int dim);
/// Sub-range [start, end) along `dim`; copies.
Tensor Slice(const Tensor& a, int dim, int64_t start, int64_t end);
/// Stacks equal-shaped tensors along a new leading dimension.
Tensor Stack(const std::vector<Tensor>& parts);

// ---------------------------------------------------------------------------
// Softmax family.
// ---------------------------------------------------------------------------
Tensor Softmax(const Tensor& a, int dim);
Tensor LogSoftmax(const Tensor& a, int dim);

// ---------------------------------------------------------------------------
// Testing helpers.
// ---------------------------------------------------------------------------
/// True when shapes match and every |a_i - b_i| <= atol + rtol*|b_i|.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_OPS_H_
