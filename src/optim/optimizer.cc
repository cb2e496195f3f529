#include "optim/optimizer.h"

#include <cmath>
#include <string>

#include "core/check.h"
#include "core/thread_pool.h"
#include "obs/obs.h"

namespace geotorch::optim {
namespace {

// Work of one parameter's update for the pool's fan-out rule, in GEMM
// multiply-adds (DESIGN.md §5): the old 1 << 14-parameter threshold then
// weighs 1 << 18, the old GEMM one. Every update below is elementwise, so
// any chunking gives the same bits.
constexpr int64_t kParamWork = 16;

// Flattens a per-parameter state list into ("<kind>.<i>", tensor)
// pairs for checkpointing; the tensors alias the optimizer's buffers.
void AppendState(
    const char* kind, std::vector<tensor::Tensor>& buffers,
    std::vector<std::pair<std::string, tensor::Tensor>>* out) {
  for (size_t i = 0; i < buffers.size(); ++i) {
    out->emplace_back(std::string(kind) + "." + std::to_string(i),
                      buffers[i]);
  }
}

}  // namespace

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

float Optimizer::ClipGradNorm(float max_norm) {
  double total = 0.0;
  for (auto& p : params_) {
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& p : params_) {
      if (!p.has_grad()) continue;
      p.node()->grad.ScaleInPlace(scale);
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<autograd::Variable> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  lr_ = lr;
  if (momentum_ > 0.0f) {
    velocity_.reserve(params_.size());
    for (auto& p : params_) {
      velocity_.push_back(tensor::Tensor::Zeros(p.shape()));
    }
  }
}

void Sgd::Step() {
  GEO_OBS_COUNT("optim.steps", 1);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    const int64_t n = p.numel();
    if (momentum_ > 0.0f) {
      float* v = velocity_[i].data();
      const float momentum = momentum_;
      const float weight_decay = weight_decay_;
      const float lr = lr_;
      const auto update = [=](int64_t begin, int64_t end) {
        for (int64_t j = begin; j < end; ++j) {
          const float grad = g[j] + weight_decay * w[j];
          v[j] = momentum * v[j] + grad;
          w[j] -= lr * v[j];
        }
      };
      ThreadPool::Global().ParallelForRange(n, update, kParamWork);
    } else {
      const float weight_decay = weight_decay_;
      const float lr = lr_;
      const auto update = [=](int64_t begin, int64_t end) {
        for (int64_t j = begin; j < end; ++j) {
          w[j] -= lr * (g[j] + weight_decay * w[j]);
        }
      };
      ThreadPool::Global().ParallelForRange(n, update, kParamWork);
    }
  }
}

std::vector<std::pair<std::string, tensor::Tensor>> Sgd::StateTensors() {
  std::vector<std::pair<std::string, tensor::Tensor>> out;
  AppendState("velocity", velocity_, &out);
  return out;
}

Adam::Adam(std::vector<autograd::Variable> params, float lr, float beta1,
           float beta2, float eps, float weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.push_back(tensor::Tensor::Zeros(p.shape()));
    v_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void Adam::Step() {
  GEO_OBS_COUNT("optim.steps", 1);
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = p.numel();
    const float beta1 = beta1_;
    const float beta2 = beta2_;
    const float eps = eps_;
    const float weight_decay = weight_decay_;
    const float lr = lr_;
    const auto update = [=](int64_t begin, int64_t end) {
      for (int64_t j = begin; j < end; ++j) {
        const float grad = g[j] + weight_decay * w[j];
        m[j] = beta1 * m[j] + (1.0f - beta1) * grad;
        v[j] = beta2 * v[j] + (1.0f - beta2) * grad * grad;
        const float m_hat = m[j] / bc1;
        const float v_hat = v[j] / bc2;
        w[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    };
    ThreadPool::Global().ParallelForRange(n, update, kParamWork);
  }
}

std::vector<std::pair<std::string, tensor::Tensor>> Adam::StateTensors() {
  std::vector<std::pair<std::string, tensor::Tensor>> out;
  AppendState("m", m_, &out);
  AppendState("v", v_, &out);
  return out;
}

RmsProp::RmsProp(std::vector<autograd::Variable> params, float lr,
                 float alpha, float eps)
    : Optimizer(std::move(params)), alpha_(alpha), eps_(eps) {
  lr_ = lr;
  sq_avg_.reserve(params_.size());
  for (auto& p : params_) {
    sq_avg_.push_back(tensor::Tensor::Zeros(p.shape()));
  }
}

void RmsProp::Step() {
  GEO_OBS_COUNT("optim.steps", 1);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* s = sq_avg_[i].data();
    const int64_t n = p.numel();
    const float alpha = alpha_;
    const float eps = eps_;
    const float lr = lr_;
    const auto update = [=](int64_t begin, int64_t end) {
      for (int64_t j = begin; j < end; ++j) {
        s[j] = alpha * s[j] + (1.0f - alpha) * g[j] * g[j];
        w[j] -= lr * g[j] / (std::sqrt(s[j]) + eps);
      }
    };
    ThreadPool::Global().ParallelForRange(n, update, kParamWork);
  }
}

std::vector<std::pair<std::string, tensor::Tensor>> RmsProp::StateTensors() {
  std::vector<std::pair<std::string, tensor::Tensor>> out;
  AppendState("sq_avg", sq_avg_, &out);
  return out;
}

CosineLrScheduler::CosineLrScheduler(Optimizer* optimizer, int total_epochs,
                                     float min_lr)
    : optimizer_(optimizer),
      total_epochs_(total_epochs),
      base_lr_(optimizer->lr()),
      min_lr_(min_lr) {}

void CosineLrScheduler::Step() {
  ++epoch_;
  const float t = std::min(1.0f, static_cast<float>(epoch_) /
                                     static_cast<float>(total_epochs_));
  const float cosine = 0.5f * (1.0f + std::cos(t * static_cast<float>(M_PI)));
  optimizer_->set_lr(min_lr_ + (base_lr_ - min_lr_) * cosine);
}

void StepLrScheduler::Step() {
  ++epoch_;
  if (epoch_ % step_size_ == 0) {
    optimizer_->set_lr(optimizer_->lr() * gamma_);
  }
}

bool EarlyStopping::Update(float val_loss) {
  if (val_loss < best_ - min_delta_) {
    best_ = val_loss;
    bad_epochs_ = 0;
  } else {
    ++bad_epochs_;
    if (bad_epochs_ >= patience_) should_stop_ = true;
  }
  return should_stop_;
}

}  // namespace geotorch::optim
