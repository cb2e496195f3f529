#ifndef GEOTORCH_AUTOGRAD_VARIABLE_H_
#define GEOTORCH_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace geotorch::autograd {

namespace internal {

/// A node of the reverse-mode tape. Holds the forward value, the
/// (lazily allocated) gradient accumulator, the parent edges, and the
/// closure that pushes this node's gradient into its parents.
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;  // empty until first accumulation
  bool requires_grad = false;
  bool is_leaf = true;
  /// Set once this node's backward has run and its saved state (the
  /// backward closure and, for interior nodes, the gradient) has been
  /// eagerly released. A released graph cannot run Backward() again.
  bool released = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Reads `grad` (guaranteed allocated) and accumulates into parents.
  std::function<void(Node&)> backward_fn;

  /// grad += g. The first gradient is adopted when `g` holds its buffer
  /// alone, and copied when anything else shares it (an op may push one
  /// tensor to two parents, or mutate it after pushing).
  void AccumulateGrad(tensor::Tensor g);
  bool has_grad() const { return grad.numel() > 0; }
};

}  // namespace internal

/// True unless a NoGradGuard is active on this thread. Ops skip tape
/// construction while disabled (inference mode).
bool GradEnabled();

/// RAII scope that disables tape recording (like torch.no_grad()).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool saved_;
};

/// A tensor tracked by the autograd tape. Cheap to copy (shared node).
///
/// Leaves are created from data (`Variable(t, /*requires_grad=*/true)`
/// for parameters); interior variables are produced by the ops in
/// autograd/ops.h. Call Backward() on a scalar result to populate
/// grad() on every parameter that contributed to it.
class Variable {
 public:
  /// An empty variable (no node). Usable only as a placeholder.
  Variable();
  /// Wraps a value as a leaf.
  explicit Variable(tensor::Tensor value, bool requires_grad = false);

  /// Builds an interior node from an op result. `backward` accumulates
  /// node.grad into the parents (only called when grad is enabled and
  /// some parent requires grad).
  static Variable FromOp(tensor::Tensor value,
                         std::vector<Variable> parents,
                         std::function<void(internal::Node&)> backward);

  bool defined() const { return node_ != nullptr; }
  const tensor::Tensor& value() const;
  tensor::Tensor& mutable_value();
  const tensor::Shape& shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }

  bool requires_grad() const;
  void set_requires_grad(bool requires_grad);

  /// The accumulated gradient. Check has_grad() first.
  const tensor::Tensor& grad() const;
  bool has_grad() const;
  /// Clears the gradient accumulator.
  void ZeroGrad();

  /// Reverse pass seeded with ones (the variable is typically a scalar
  /// loss). Traverses the tape once in reverse topological order.
  void Backward();

  std::shared_ptr<internal::Node> node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

}  // namespace geotorch::autograd

#endif  // GEOTORCH_AUTOGRAD_VARIABLE_H_
