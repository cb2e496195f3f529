#include "autograd/variable.h"

#include <unordered_set>
#include <utility>

#include "core/check.h"

namespace geotorch::autograd {
namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

namespace internal {

void Node::AccumulateGrad(tensor::Tensor g) {
  GEO_CHECK(tensor::SameShape(g.shape(), value.shape()))
      << "gradient shape " << tensor::ShapeToString(g.shape())
      << " does not match value shape "
      << tensor::ShapeToString(value.shape());
  if (!has_grad()) {
    grad = g.HoldsStorageAlone() ? std::move(g) : g.Clone();
  } else {
    grad.AddInPlace(g);
  }
}

}  // namespace internal

bool GradEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : saved_(t_grad_enabled) {
  t_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { t_grad_enabled = saved_; }

Variable::Variable() = default;

Variable::Variable(tensor::Tensor value, bool requires_grad)
    : node_(std::make_shared<internal::Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->is_leaf = true;
}

Variable Variable::FromOp(tensor::Tensor value,
                          std::vector<Variable> parents,
                          std::function<void(internal::Node&)> backward) {
  bool any_requires = false;
  for (const Variable& p : parents) {
    if (p.defined() && p.requires_grad()) {
      any_requires = true;
      break;
    }
  }
  if (!GradEnabled() || !any_requires) {
    // Detached result: no tape edge.
    return Variable(std::move(value), /*requires_grad=*/false);
  }
  Variable out;
  out.node_ = std::make_shared<internal::Node>();
  out.node_->value = std::move(value);
  out.node_->requires_grad = true;
  out.node_->is_leaf = false;
  for (const Variable& p : parents) {
    if (p.defined()) out.node_->parents.push_back(p.node_);
  }
  out.node_->backward_fn = std::move(backward);
  return out;
}

const tensor::Tensor& Variable::value() const {
  GEO_CHECK(defined()) << "value() on empty Variable";
  return node_->value;
}

tensor::Tensor& Variable::mutable_value() {
  GEO_CHECK(defined());
  return node_->value;
}

bool Variable::requires_grad() const {
  return defined() && node_->requires_grad;
}

void Variable::set_requires_grad(bool requires_grad) {
  GEO_CHECK(defined());
  GEO_CHECK(node_->is_leaf) << "set_requires_grad on interior node";
  node_->requires_grad = requires_grad;
}

const tensor::Tensor& Variable::grad() const {
  GEO_CHECK(defined() && node_->has_grad()) << "grad() before Backward()";
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->has_grad(); }

void Variable::ZeroGrad() {
  if (defined()) node_->grad = tensor::Tensor();
}

void Variable::Backward() {
  GEO_CHECK(defined());
  GEO_CHECK(node_->requires_grad)
      << "Backward() on a variable that requires no grad";
  GEO_CHECK(!node_->released)
      << "Backward() twice through the same graph: saved intermediates "
         "were eagerly released by the first pass";

  // Iterative post-order DFS over parents -> topological order.
  std::vector<internal::Node*> topo;
  std::unordered_set<internal::Node*> visited;
  struct Frame {
    internal::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({node_.get(), 0});
  visited.insert(node_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::Node* parent =
          frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  node_->AccumulateGrad(tensor::Tensor::Ones(node_->value.shape()));
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::Node* n = *it;
    if (n->backward_fn && n->has_grad()) {
      n->backward_fn(*n);
    }
    // Eager release: once this node's gradient has been pushed into its
    // parents, neither its backward closure (which captures the saved
    // forward tensors) nor its interior gradient are needed again —
    // drop them now instead of at graph teardown, so peak memory tracks
    // the backward frontier rather than the whole graph. The `parents`
    // edges must stay: `topo` holds raw pointers into them.
    n->backward_fn = nullptr;
    n->released = true;
    if (!n->is_leaf) n->grad = tensor::Tensor();
  }
}

}  // namespace geotorch::autograd
