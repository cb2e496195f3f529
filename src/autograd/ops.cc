#include "autograd/ops.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "core/check.h"
#include "tensor/ops.h"

namespace geotorch::autograd {

namespace {

namespace ts = ::geotorch::tensor;

using internal::Node;

// Expands `t` to `shape` by broadcasting (one strided copy).
ts::Tensor Broadcast(const ts::Tensor& t, const ts::Shape& shape) {
  return ts::BroadcastTo(t, shape);
}

// Note on the in-place backward kernels below: a node's grad is fully
// accumulated before its backward_fn runs (reverse topological order),
// and it is privately owned: AccumulateGrad adopts only a gradient no
// other tensor shares, and copies (or adds) any other, such as n.grad
// itself or a view of it — so a backward_fn may freely mutate n.grad
// after (or instead of) materializing a temporary.

// Accumulates `g` into parent i of `n` when that parent wants a grad.
// Pass a freshly computed gradient as a temporary, or std::move(n.grad)
// from an op with one parent (Backward drops an interior grad once its
// backward_fn has run): the parent then takes the buffer over instead
// of cloning it. An op that pushes n.grad twice passes it as an lvalue.
void PushGrad(Node& n, size_t i, ts::Tensor g) {
  Node* parent = n.parents[i].get();
  if (parent->requires_grad) parent->AccumulateGrad(std::move(g));
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  ts::Tensor out = ts::Add(a.value(), b.value());
  ts::Shape sa = a.shape();
  ts::Shape sb = b.shape();
  return Variable::FromOp(std::move(out), {a, b}, [sa, sb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(n.grad, sa));
    PushGrad(n, 1, ts::SumToShape(n.grad, sb));
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  ts::Tensor out = ts::Sub(a.value(), b.value());
  ts::Shape sa = a.shape();
  ts::Shape sb = b.shape();
  return Variable::FromOp(std::move(out), {a, b}, [sa, sb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(n.grad, sa));
    ts::NegInPlace(n.grad);
    PushGrad(n, 1, ts::SumToShape(n.grad, sb));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  ts::Tensor va = a.value();
  ts::Tensor vb = b.value();
  ts::Tensor out = ts::Mul(va, vb);
  return Variable::FromOp(std::move(out), {a, b}, [va, vb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(ts::Mul(n.grad, vb), va.shape()));
    if (ts::SameShape(n.grad.shape(), va.shape())) {
      ts::MulInPlace(n.grad, va);
      PushGrad(n, 1, ts::SumToShape(n.grad, vb.shape()));
    } else {
      PushGrad(n, 1, ts::SumToShape(ts::Mul(n.grad, va), vb.shape()));
    }
  });
}

Variable Div(const Variable& a, const Variable& b) {
  ts::Tensor va = a.value();
  ts::Tensor vb = b.value();
  ts::Tensor out = ts::Div(va, vb);
  return Variable::FromOp(std::move(out), {a, b}, [va, vb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(ts::Div(n.grad, vb), va.shape()));
    ts::Tensor gb = ts::Neg(ts::Div(ts::Mul(n.grad, va), ts::Mul(vb, vb)));
    PushGrad(n, 1, ts::SumToShape(std::move(gb), vb.shape()));
  });
}

Variable AddScalar(const Variable& a, float s) {
  return Variable::FromOp(ts::AddScalar(a.value(), s), {a},
                          [](Node& n) { PushGrad(n, 0, std::move(n.grad)); });
}

Variable MulScalar(const Variable& a, float s) {
  return Variable::FromOp(ts::MulScalar(a.value(), s), {a}, [s](Node& n) {
    n.grad.ScaleInPlace(s);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable PowScalar(const Variable& a, float p) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::PowScalar(va, p), {a}, [va, p](Node& n) {
    PushGrad(n, 0,
             ts::Mul(n.grad, ts::MulScalar(ts::PowScalar(va, p - 1.0f), p)));
  });
}

Variable Neg(const Variable& a) {
  return Variable::FromOp(ts::Neg(a.value()), {a}, [](Node& n) {
    ts::NegInPlace(n.grad);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable Exp(const Variable& a) {
  ts::Tensor out = ts::Exp(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    ts::MulInPlace(n.grad, y);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable Log(const Variable& a) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::Log(va), {a}, [va](Node& n) {
    PushGrad(n, 0, ts::Div(n.grad, va));
  });
}

Variable Sqrt(const Variable& a) {
  ts::Tensor out = ts::Sqrt(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    PushGrad(n, 0, ts::Div(ts::MulScalar(n.grad, 0.5f), y));
  });
}

Variable Relu(const Variable& a) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::Relu(va), {a}, [va](Node& n) {
    ts::ReluMaskInPlace(n.grad, va);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable LeakyRelu(const Variable& a, float slope) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::LeakyRelu(va, slope), {a}, [va, slope](Node& n) {
    ts::ReluMaskInPlace(n.grad, va, slope);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable Sigmoid(const Variable& a) {
  ts::Tensor out = ts::Sigmoid(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    ts::SigmoidGradInPlace(n.grad, y);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable Tanh(const Variable& a) {
  ts::Tensor out = ts::Tanh(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    ts::TanhGradInPlace(n.grad, y);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  ts::Tensor va = a.value();
  ts::Tensor vb = b.value();
  ts::Tensor out = ts::MatMul(va, vb);
  return Variable::FromOp(std::move(out), {a, b}, [va, vb](Node& n) {
    // dA = g·B^T, dB = A^T·g; the kernel consumes the transposed
    // operand in place, so neither transpose is materialized.
    PushGrad(n, 0, ts::MatMulT(n.grad, vb, false, true));
    PushGrad(n, 1, ts::MatMulT(va, n.grad, true, false));
  });
}

Variable Reshape(const Variable& a, tensor::Shape shape) {
  ts::Shape in_shape = a.shape();
  return Variable::FromOp(a.value().Reshape(std::move(shape)).Clone(), {a},
                          [in_shape](Node& n) {
                            PushGrad(n, 0, n.grad.Reshape(in_shape));
                          });
}

Variable Permute(const Variable& a, const std::vector<int>& perm) {
  std::vector<int> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = static_cast<int>(i);
  return Variable::FromOp(ts::Permute(a.value(), perm), {a},
                          [inverse](Node& n) {
                            PushGrad(n, 0, ts::Permute(n.grad, inverse));
                          });
}

Variable Concat(const std::vector<Variable>& parts, int dim) {
  GEO_CHECK(!parts.empty());
  std::vector<ts::Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  ts::Tensor out = ts::Concat(values, dim);
  const int rank = parts[0].value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  std::vector<int64_t> sizes;
  sizes.reserve(parts.size());
  for (const Variable& p : parts) sizes.push_back(p.shape()[norm_dim]);
  return Variable::FromOp(
      std::move(out), parts, [sizes, norm_dim](Node& n) {
        int64_t offset = 0;
        for (size_t i = 0; i < sizes.size(); ++i) {
          PushGrad(n, i,
                   ts::Slice(n.grad, norm_dim, offset, offset + sizes[i]));
          offset += sizes[i];
        }
      });
}

Variable Slice(const Variable& a, int dim, int64_t start, int64_t end) {
  ts::Tensor out = ts::Slice(a.value(), dim, start, end);
  ts::Shape in_shape = a.shape();
  const int rank = a.value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  return Variable::FromOp(
      std::move(out), {a}, [in_shape, norm_dim, start](Node& n) {
        // Scatter the slice gradient back into a zero tensor.
        ts::Tensor gin = ts::Tensor::Zeros(in_shape);
        int64_t outer = 1;
        for (int d = 0; d < norm_dim; ++d) outer *= in_shape[d];
        int64_t inner = 1;
        for (int d = norm_dim + 1; d < static_cast<int>(in_shape.size()); ++d) {
          inner *= in_shape[d];
        }
        const int64_t in_dim = in_shape[norm_dim];
        const int64_t out_dim = n.grad.shape()[norm_dim];
        const float* pg = n.grad.data();
        float* po = gin.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(po + (o * in_dim + start) * inner,
                      pg + o * out_dim * inner,
                      sizeof(float) * out_dim * inner);
        }
        PushGrad(n, 0, std::move(gin));
      });
}

Variable Sum(const Variable& a, int dim, bool keepdim) {
  ts::Tensor out = ts::Sum(a.value(), dim, keepdim);
  ts::Shape in_shape = a.shape();
  const int rank = a.value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  return Variable::FromOp(
      std::move(out), {a}, [in_shape, norm_dim, keepdim](Node& n) {
        ts::Tensor g = n.grad;
        if (!keepdim) {
          ts::Shape kd = in_shape;
          kd[norm_dim] = 1;
          g = g.Reshape(kd);
        }
        PushGrad(n, 0, Broadcast(g, in_shape));
      });
}

Variable Mean(const Variable& a, int dim, bool keepdim) {
  const int rank = a.value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  const float inv = 1.0f / static_cast<float>(a.shape()[norm_dim]);
  return MulScalar(Sum(a, dim, keepdim), inv);
}

Variable SumAll(const Variable& a) {
  ts::Tensor out = ts::Tensor::Scalar(ts::SumAll(a.value()));
  ts::Shape in_shape = a.shape();
  return Variable::FromOp(std::move(out), {a}, [in_shape](Node& n) {
    PushGrad(n, 0, ts::Tensor::Full(in_shape, n.grad.flat(0)));
  });
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  return MulScalar(SumAll(a), inv);
}

Variable Conv2d(const Variable& x, const Variable& w, const Variable& bias,
                const tensor::ConvSpec& spec) {
  const bool has_bias = bias.defined() && bias.numel() > 0;
  ts::Tensor out = ts::Conv2dForward(
      x.value(), w.value(), has_bias ? bias.value() : ts::Tensor(), spec);
  ts::Tensor vx = x.value();
  ts::Tensor vw = w.value();
  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(bias);
  return Variable::FromOp(
      std::move(out), std::move(parents),
      [vx, vw, has_bias, spec](Node& n) {
        // A data input (no parent wants its grad) skips grad_x.
        ts::Conv2dGrads grads =
            ts::Conv2dBackward(n.grad, vx, vw, has_bias, spec,
                               n.parents[0]->requires_grad);
        PushGrad(n, 0, std::move(grads.grad_x));
        PushGrad(n, 1, std::move(grads.grad_w));
        if (has_bias) PushGrad(n, 2, std::move(grads.grad_bias));
      });
}

Variable ConvTranspose2d(const Variable& x, const Variable& w,
                         const Variable& bias,
                         const tensor::ConvSpec& spec) {
  const bool has_bias = bias.defined() && bias.numel() > 0;
  ts::Tensor out = ts::ConvTranspose2dForward(
      x.value(), w.value(), has_bias ? bias.value() : ts::Tensor(), spec);
  ts::Tensor vx = x.value();
  ts::Tensor vw = w.value();
  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(bias);
  return Variable::FromOp(
      std::move(out), std::move(parents),
      [vx, vw, has_bias, spec](Node& n) {
        ts::ConvTranspose2dGrads grads =
            ts::ConvTranspose2dBackward(n.grad, vx, vw, has_bias, spec);
        PushGrad(n, 0, std::move(grads.grad_x));
        PushGrad(n, 1, std::move(grads.grad_w));
        if (has_bias) PushGrad(n, 2, std::move(grads.grad_bias));
      });
}

Variable MaxPool2d(const Variable& x, int64_t kernel) {
  if (!GradEnabled() || !x.requires_grad()) {
    // No tape edge will be recorded, so nothing reads the argmax.
    return Variable(ts::MaxPool2dEval(x.value(), kernel));
  }
  auto [out, argmax] = ts::MaxPool2dForward(x.value(), kernel);
  ts::Shape in_shape = x.shape();
  return Variable::FromOp(
      std::move(out), {x},
      [in_shape, argmax = std::move(argmax)](Node& n) {
        PushGrad(n, 0, ts::MaxPool2dBackward(n.grad, in_shape, argmax));
      });
}

Variable AvgPool2d(const Variable& x, int64_t kernel) {
  ts::Tensor out = ts::AvgPool2dForward(x.value(), kernel);
  ts::Shape in_shape = x.shape();
  return Variable::FromOp(std::move(out), {x}, [in_shape, kernel](Node& n) {
    PushGrad(n, 0, ts::AvgPool2dBackward(n.grad, in_shape, kernel));
  });
}

Variable UpsampleNearest2x(const Variable& x) {
  return Variable::FromOp(ts::UpsampleNearest2x(x.value()), {x},
                          [](Node& n) {
                            PushGrad(n, 0,
                                     ts::UpsampleNearest2xBackward(n.grad));
                          });
}

Variable Dropout(const Variable& x, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return x;
  GEO_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  ts::Tensor mask = ts::Tensor::Uninitialized(x.shape());
  float* pm = mask.data();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng.Bernoulli(p) ? 0.0f : scale;
  }
  ts::Tensor out = ts::Mul(x.value(), mask);
  return Variable::FromOp(std::move(out), {x}, [mask](Node& n) {
    ts::MulInPlace(n.grad, mask);
    PushGrad(n, 0, std::move(n.grad));
  });
}

Variable MseLoss(const Variable& pred, const tensor::Tensor& target) {
  GEO_CHECK(ts::SameShape(pred.shape(), target.shape()))
      << "MseLoss shapes " << ts::ShapeToString(pred.shape()) << " vs "
      << ts::ShapeToString(target.shape());
  ts::Tensor diff = ts::Sub(pred.value(), target);
  const float n_inv = 1.0f / static_cast<float>(diff.numel());
  ts::Tensor out =
      ts::Tensor::Scalar(ts::SumAll(ts::Mul(diff, diff)) * n_inv);
  return Variable::FromOp(std::move(out), {pred}, [diff, n_inv](Node& n) {
    const float s = 2.0f * n_inv * n.grad.flat(0);
    PushGrad(n, 0, ts::MulScalar(diff, s));
  });
}

Variable CrossEntropyLoss(const Variable& logits,
                          const tensor::Tensor& target) {
  const ts::Tensor& z = logits.value();
  GEO_CHECK_GE(z.ndim(), 2);
  const int64_t c = z.size(1);
  // Positions = batch x spatial.
  int64_t outer = z.size(0);
  int64_t inner = 1;
  for (int d = 2; d < z.ndim(); ++d) inner *= z.size(d);
  GEO_CHECK_EQ(target.numel(), outer * inner)
      << "CrossEntropyLoss target count mismatch";

  ts::Tensor logp = ts::LogSoftmax(z, 1);
  const float* plp = logp.data();
  const float* pt = target.data();
  double loss = 0.0;
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      const int64_t cls = static_cast<int64_t>(pt[o * inner + i]);
      GEO_CHECK(cls >= 0 && cls < c) << "class id " << cls << " out of range";
      loss -= plp[(o * c + cls) * inner + i];
    }
  }
  const int64_t count = outer * inner;
  ts::Tensor out =
      ts::Tensor::Scalar(static_cast<float>(loss / static_cast<double>(count)));
  ts::Tensor tgt = target;
  return Variable::FromOp(
      std::move(out), {logits}, [logp, tgt, c, outer, inner, count](Node& n) {
        // d/dz = (softmax - onehot) / count.
        ts::Tensor grad = ts::Exp(logp);
        float* pg = grad.data();
        const float* pt2 = tgt.data();
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t i = 0; i < inner; ++i) {
            const int64_t cls = static_cast<int64_t>(pt2[o * inner + i]);
            pg[(o * c + cls) * inner + i] -= 1.0f;
          }
        }
        const float s = n.grad.flat(0) / static_cast<float>(count);
        grad.ScaleInPlace(s);
        PushGrad(n, 0, std::move(grad));
      });
}

Variable BceWithLogitsLoss(const Variable& logits,
                           const tensor::Tensor& target) {
  const ts::Tensor& z = logits.value();
  GEO_CHECK(ts::SameShape(z.shape(), target.shape()));
  const float* pz = z.data();
  const float* pt = target.data();
  double loss = 0.0;
  for (int64_t i = 0; i < z.numel(); ++i) {
    const double zi = pz[i];
    const double yi = pt[i];
    loss += std::max(zi, 0.0) - zi * yi + std::log1p(std::exp(-std::fabs(zi)));
  }
  const int64_t count = z.numel();
  ts::Tensor out =
      ts::Tensor::Scalar(static_cast<float>(loss / static_cast<double>(count)));
  ts::Tensor vz = z;
  ts::Tensor tgt = target;
  return Variable::FromOp(std::move(out), {logits},
                          [vz, tgt, count](Node& n) {
                            ts::Tensor grad = ts::Sub(ts::Sigmoid(vz), tgt);
                            grad.ScaleInPlace(n.grad.flat(0) /
                                              static_cast<float>(count));
                            PushGrad(n, 0, std::move(grad));
                          });
}

}  // namespace geotorch::autograd
