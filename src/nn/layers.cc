#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/memory.h"
#include "nn/init.h"
#include "obs/obs.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace geotorch::nn {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;

namespace {

// Publishes the worst per-element dequantization error of an int8
// weight cache, as parts-per-million of the tensor's absmax. Gauges are
// last-write-wins, so the value reflects the most recently quantized
// layer — enough to spot a layer whose distribution quantizes badly.
void PublishWeightQuantError(const float* w, const int8_t* q,
                             const float* scales, int64_t rows, int64_t cols,
                             bool per_row) {
  float max_err = 0.0f;
  float absmax = 0.0f;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const float orig = w[r * cols + c];
      const float s = per_row ? scales[r] : scales[c];
      max_err = std::max(max_err,
                         std::fabs(orig - static_cast<float>(q[r * cols + c]) *
                                              s));
      absmax = std::max(absmax, std::fabs(orig));
    }
  }
  if (absmax > 0.0f) {
    obs::SetGauge("quant.weight_err_ppm",
                  static_cast<int64_t>(1e6f * max_err / absmax + 0.5f));
  }
}

// Quantizes (F, C, KH, KW) weights `pw` (shaped like `w`) per output
// channel and packs them for the int8 conv kernel. Returns an empty
// cache, which keeps the layer in f32, when C·KH·KW taps would overflow
// the kernel's i32 sums.
ts::Int8ConvWeights QuantizeConvWeights(const ts::Tensor& w, const float* pw) {
  const int64_t f = w.size(0);
  const int64_t ck = w.numel() / f;
  if (ck > ts::gemm_internal::kConvInt8MaxK) return {};
  std::vector<int8_t> w_q(w.numel());
  std::vector<float> w_scales(f);
  ts::QuantizeRowsInt8(pw, f, ck, w_q.data(), w_scales.data());
  PublishWeightQuantError(pw, w_q.data(), w_scales.data(), f, ck,
                          /*per_row=*/true);
  return ts::PackInt8ConvWeights(w_q.data(), w_scales.data(), f, w.size(1),
                                 w.size(2), w.size(3));
}

// True when the eval forward should take a low-precision kernel: never
// in training or calibration, and never when a gradient graph is being
// recorded (low-precision paths have no backward).
bool UseLowPrecision(const Module& m) {
  return !m.training() && !m.calibrating() &&
         m.precision() != Precision::kF32 && !ag::GradEnabled();
}

}  // namespace

bool FusedEvalEligible(const Module& m) {
  return !m.training() && !m.calibrating() && !ag::GradEnabled();
}

// --- Linear ---------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool bias)
    : has_bias_(bias) {
  weight_ = RegisterParameter(
      "weight",
      KaimingUniform({in_features, out_features}, in_features, rng));
  if (has_bias_) {
    bias_ = RegisterParameter("bias", ts::Tensor::Zeros({out_features}));
  }
}

ag::Variable Linear::Forward(const ag::Variable& x) {
  GEO_CHECK_EQ(x.value().ndim(), 2);
  const ts::Tensor& xv = x.value();
  if (!training() && calibrating()) {
    act_absmax_ = std::max(act_absmax_, ts::AbsMax(xv.data(), xv.numel()));
  }
  if (UseLowPrecision(*this)) {
    return ForwardFusedEval(x, ts::EpilogueAct::kNone);
  }
  ag::Variable y = ag::MatMul(x, weight_);
  if (has_bias_) y = ag::Add(y, bias_);
  return y;
}

void Linear::OnPrecisionChanged() {
  w_q_.clear();
  w_scales_.clear();
  if (precision() != Precision::kInt8) return;
  const ts::Tensor& w = weight_.value();
  const int64_t in = w.size(0);
  const int64_t out = w.size(1);
  // The weight is the (constant) B operand of every serving matmul, so
  // it is stored pre-packed in the kernel's panel layout — the per-call
  // cost of the int8 GEMM is then just packing the small activation
  // panel.
  std::vector<int8_t> raw(w.numel());
  w_scales_.resize(out);
  ts::QuantizeColsInt8(w.data(), in, out, raw.data(), w_scales_.data());
  PublishWeightQuantError(w.data(), raw.data(), w_scales_.data(), in, out,
                          /*per_row=*/false);
  w_q_.resize(ts::Int8PackedBSize(in, out));
  ts::PackInt8B(raw.data(), in, out, w_q_.data());
}

ag::Variable Linear::ForwardFusedEval(const ag::Variable& x,
                                      ts::EpilogueAct act, float leaky_slope) {
  GEO_CHECK_EQ(x.value().ndim(), 2);
  GEO_OBS_COUNT("fusion.linear_calls", 1);
  const ts::Tensor& xv = x.value();
  const int64_t m = xv.size(0);
  const int64_t k = xv.size(1);
  const int64_t n = weight_.shape()[1];
  ts::GemmEpilogue ep;
  ep.col_bias = has_bias_ ? bias_.value().data() : nullptr;
  ep.act = act;
  ep.leaky_slope = leaky_slope;
  ts::Tensor y = ts::Tensor::Uninitialized({m, n});
  if (UseLowPrecision(*this) && !w_q_.empty()) {
    const float act_scale =
        act_absmax_ > 0.0f
            ? ts::SymmetricScale(act_absmax_)
            : ts::SymmetricScale(ts::AbsMax(xv.data(), xv.numel()));
    int8_t* xq = reinterpret_cast<int8_t*>(
        ThreadLocalWorkspace(kWorkspaceQuant, (m * k + 3) / 4));
    ts::QuantizeInt8(xv.data(), m * k, act_scale, xq);
    ts::Int8GemmOptions opts;
    opts.a_scales = &act_scale;
    opts.a_scales_len = 1;
    opts.b_scales = w_scales_.data();
    opts.b_scales_len = n;
    opts.epilogue = &ep;
    ts::GemmInt8(xq, ts::Int8PackedB{w_q_.data()}, y.data(), m, k, n, opts);
    return ag::Variable(std::move(y));
  }
  ts::GemmOptions opts;
  opts.epilogue = &ep;
  ts::Gemm(xv.data(), weight_.value().data(), y.data(), m, k, n, opts);
  return ag::Variable(std::move(y));
}

// --- Conv2d ---------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               Rng& rng, int64_t stride, int64_t padding, bool bias)
    : has_bias_(bias) {
  spec_.stride = stride;
  spec_.padding = padding;
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = RegisterParameter(
      "weight", KaimingUniform({out_channels, in_channels, kernel, kernel},
                               fan_in, rng));
  if (has_bias_) {
    bias_ = RegisterParameter("bias", ts::Tensor::Zeros({out_channels}));
  }
}

ag::Variable Conv2d::Forward(const ag::Variable& x) {
  const ts::Tensor& xv = x.value();
  if (!training() && calibrating()) {
    act_absmax_ = std::max(act_absmax_, ts::AbsMax(xv.data(), xv.numel()));
  }
  if (UseLowPrecision(*this)) {
    return ForwardFusedEval(x, nullptr, ts::EpilogueAct::kNone);
  }
  return ag::Conv2d(x, weight_, has_bias_ ? bias_ : ag::Variable(), spec_);
}

void Conv2d::OnPrecisionChanged() {
  w_int8_ = {};
  if (precision() != Precision::kInt8) return;
  w_int8_ = QuantizeConvWeights(weight_.value(), weight_.value().data());
}

ag::Variable Conv2d::ForwardFusedEval(const ag::Variable& x,
                                      const BatchNorm2d* bn,
                                      ts::EpilogueAct act, float leaky_slope) {
  const bool int8 = UseLowPrecision(*this);
  // Without `bn`, only the bias + activation epilogue is fused over the
  // live parameters (bitwise vs the unfused sequence); with it, the
  // folded snapshot replaces weights, bias and int8 caches alike.
  const ts::Tensor empty;
  const ts::Tensor* w = &weight_.value();
  const ts::Tensor* b = has_bias_ ? &bias_.value() : &empty;
  const ts::Int8ConvWeights* w_int8 = &w_int8_;
  if (bn != nullptr) {
    GEO_CHECK_EQ(bn->channels(), w->size(0))
        << "conv+BN fusion channel mismatch";
    RefreshFoldedCache(*bn, int8 ? precision() : Precision::kF32);
    w = &fold_.w;
    b = &fold_.b;
    w_int8 = &fold_.w_int8;
  }
  if (int8 && !w_int8->packed.empty()) {
    const float act_scale =
        act_absmax_ > 0.0f ? ts::SymmetricScale(act_absmax_) : 0.0f;
    return ag::Variable(ts::Conv2dForwardInt8(x.value(), *w_int8, act_scale,
                                              *b, spec_, act, leaky_slope));
  }
  return ag::Variable(
      ts::Conv2dForward(x.value(), *w, *b, spec_, act, leaky_slope));
}

void Conv2d::RefreshFoldedCache(const BatchNorm2d& bn, Precision prec) {
  std::lock_guard<std::mutex> lock(fold_mu_);
  if (fold_.valid && fold_.bn == &bn && fold_.conv_version == state_version() &&
      fold_.bn_version == bn.state_version() && fold_.precision == prec) {
    return;
  }
  GEO_OBS_COUNT("fusion.fold_rebuilds", 1);
  const ts::Tensor& w = weight_.value();
  const int64_t f = w.size(0);
  const int64_t ck = w.numel() / f;
  std::vector<float> scale;
  std::vector<float> shift;
  bn.FoldedAffine(&scale, &shift);
  // Fold first, always from the f32 parameters; quantization (below)
  // then sees the already-scaled weights, so per-channel int8 scales
  // adapt to the folded magnitudes.
  fold_.w = ts::Tensor::Uninitialized(w.shape());
  fold_.b = ts::Tensor::Uninitialized({f});
  const float* pw = w.data();
  const float* pb = has_bias_ ? bias_.value().data() : nullptr;
  float* pfw = fold_.w.data();
  float* pfb = fold_.b.data();
  for (int64_t fi = 0; fi < f; ++fi) {
    const float s = scale[fi];
    for (int64_t j = 0; j < ck; ++j) pfw[fi * ck + j] = pw[fi * ck + j] * s;
    pfb[fi] = (pb != nullptr ? pb[fi] * s : 0.0f) + shift[fi];
  }
  fold_.w_int8 = prec == Precision::kInt8 ? QuantizeConvWeights(w, pfw)
                                          : ts::Int8ConvWeights{};
  fold_.bn = &bn;
  fold_.conv_version = state_version();
  fold_.bn_version = bn.state_version();
  fold_.precision = prec;
  fold_.valid = true;
}

// --- ConvTranspose2d -------------------------------------------------------

ConvTranspose2d::ConvTranspose2d(int64_t in_channels, int64_t out_channels,
                                 int64_t kernel, Rng& rng, int64_t stride,
                                 int64_t padding, bool bias)
    : has_bias_(bias) {
  spec_.stride = stride;
  spec_.padding = padding;
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = RegisterParameter(
      "weight", KaimingUniform({in_channels, out_channels, kernel, kernel},
                               fan_in, rng));
  if (has_bias_) {
    bias_ = RegisterParameter("bias", ts::Tensor::Zeros({out_channels}));
  }
}

ag::Variable ConvTranspose2d::Forward(const ag::Variable& x) {
  return ag::ConvTranspose2d(x, weight_,
                             has_bias_ ? bias_ : ag::Variable(), spec_);
}

// --- BatchNorm2d ------------------------------------------------------------

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : eps_(eps), momentum_(momentum), channels_(channels) {
  gamma_ = RegisterParameter("gamma", ts::Tensor::Ones({1, channels, 1, 1}));
  beta_ = RegisterParameter("beta", ts::Tensor::Zeros({1, channels, 1, 1}));
  running_mean_ = ts::Tensor::Zeros({1, channels, 1, 1});
  running_var_ = ts::Tensor::Ones({1, channels, 1, 1});
}

ag::Variable BatchNorm2d::Forward(const ag::Variable& x) {
  GEO_CHECK_EQ(x.value().ndim(), 4);
  GEO_CHECK_EQ(x.shape()[1], channels_);
  if (training()) {
    // Batch statistics over (N, H, W), differentiable.
    ag::Variable mean =
        ag::Mean(ag::Mean(ag::Mean(x, 0, true), 2, true), 3, true);
    ag::Variable centered = ag::Sub(x, mean);
    ag::Variable var = ag::Mean(
        ag::Mean(ag::Mean(ag::Mul(centered, centered), 0, true), 2, true), 3,
        true);
    ag::Variable inv_std = ag::PowScalar(ag::AddScalar(var, eps_), -0.5f);
    ag::Variable norm = ag::Mul(centered, inv_std);
    // Running statistics (no autograd): ema of batch stats. The eval
    // caches (inv_std, folded affine) depend on them, so flag them
    // stale.
    {
      const float m = momentum_;
      running_mean_.ScaleInPlace(1.0f - m);
      ts::AddScaledInPlace(running_mean_, mean.value(), m);
      running_var_.ScaleInPlace(1.0f - m);
      ts::AddScaledInPlace(running_var_, var.value(), m);
      BumpStateVersion();
    }
    return ag::Add(ag::Mul(norm, gamma_), beta_);
  }
  // Eval: use running stats as constants. inv_std comes from the
  // version-keyed cache; it was previously recomputed (two temporary
  // tensors and a pow) on every call.
  RefreshEvalCache();
  ag::Variable mean(running_mean_);
  ag::Variable inv_std(inv_std_);
  ag::Variable norm = ag::Mul(ag::Sub(x, mean), inv_std);
  return ag::Add(ag::Mul(norm, gamma_), beta_);
}

void BatchNorm2d::RefreshEvalCache() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_valid_ && cache_version_ == state_version()) return;
  GEO_OBS_COUNT("fusion.bn_cache_rebuilds", 1);
  // Exact op sequence of the old per-call eval path, so the cached
  // tensor is bitwise what the uncached forward multiplied by.
  inv_std_ = ts::PowScalar(ts::AddScalar(running_var_, eps_), -0.5f);
  fold_scale_.assign(channels_, 0.0f);
  fold_shift_.assign(channels_, 0.0f);
  const float* g = gamma_.value().data();
  const float* b = beta_.value().data();
  const float* mu = running_mean_.data();
  const float* inv = inv_std_.data();
  for (int64_t ci = 0; ci < channels_; ++ci) {
    fold_scale_[ci] = g[ci] * inv[ci];
    fold_shift_[ci] = b[ci] - mu[ci] * fold_scale_[ci];
  }
  cache_version_ = state_version();
  cache_valid_ = true;
}

void BatchNorm2d::FoldedAffine(std::vector<float>* scale,
                               std::vector<float>* shift) const {
  RefreshEvalCache();
  std::lock_guard<std::mutex> lock(cache_mu_);
  *scale = fold_scale_;
  *shift = fold_shift_;
}

// --- Dropout -----------------------------------------------------------------

Dropout::Dropout(float p, uint64_t seed) : p_(p), rng_(seed) {
  GEO_CHECK(p >= 0.0f && p < 1.0f);
}

ag::Variable Dropout::Forward(const ag::Variable& x) {
  return ag::Dropout(x, p_, training(), rng_);
}

// --- Sequential ----------------------------------------------------------------

Sequential& Sequential::Add(std::unique_ptr<UnaryModule> layer) {
  RegisterModule("layer" + std::to_string(layers_.size()), layer.get());
  layers_.push_back(std::move(layer));
  return *this;
}

namespace {

// Maps an activation layer onto its GEMM-epilogue equivalent. Tanh has
// no epilogue (it never follows a conv/linear in the repo's models).
bool EpilogueActOf(UnaryModule* m, ts::EpilogueAct* act, float* slope) {
  if (dynamic_cast<ReluLayer*>(m) != nullptr) {
    *act = ts::EpilogueAct::kRelu;
    return true;
  }
  if (auto* leaky = dynamic_cast<LeakyReluLayer*>(m)) {
    *act = ts::EpilogueAct::kLeakyRelu;
    *slope = leaky->slope();
    return true;
  }
  if (dynamic_cast<SigmoidLayer*>(m) != nullptr) {
    *act = ts::EpilogueAct::kSigmoid;
    return true;
  }
  return false;
}

}  // namespace

ag::Variable Sequential::Forward(const ag::Variable& x) {
  if (FusedEvalEligible(*this)) return ForwardFusedEval(x);
  ag::Variable cur = x;
  for (auto& layer : layers_) cur = layer->Forward(cur);
  return cur;
}

ag::Variable Sequential::ForwardFusedEval(const ag::Variable& x) {
  ag::Variable cur = x;
  size_t i = 0;
  while (i < layers_.size()) {
    UnaryModule* m = layers_[i].get();
    ts::EpilogueAct act = ts::EpilogueAct::kNone;
    float slope = 0.01f;
    if (auto* conv = dynamic_cast<Conv2d*>(m)) {
      size_t next = i + 1;
      BatchNorm2d* bn = nullptr;
      if (next < layers_.size()) {
        bn = dynamic_cast<BatchNorm2d*>(layers_[next].get());
        if (bn != nullptr) ++next;
      }
      if (next < layers_.size() &&
          EpilogueActOf(layers_[next].get(), &act, &slope)) {
        ++next;
      }
      if (bn != nullptr || act != ts::EpilogueAct::kNone) {
        GEO_OBS_COUNT("fusion.seq_conv_groups", 1);
        cur = conv->ForwardFusedEval(cur, bn, act, slope);
        i = next;
        continue;
      }
    } else if (auto* linear = dynamic_cast<Linear*>(m)) {
      if (i + 1 < layers_.size() &&
          EpilogueActOf(layers_[i + 1].get(), &act, &slope)) {
        cur = linear->ForwardFusedEval(cur, act, slope);
        i += 2;
        continue;
      }
    }
    cur = m->Forward(cur);
    ++i;
  }
  return cur;
}

// --- LstmCell ---------------------------------------------------------------

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size) {
  const int64_t gates = 4 * hidden_size;
  w_x_ = RegisterParameter(
      "w_x", XavierUniform({input_size, gates}, input_size, hidden_size, rng));
  w_h_ = RegisterParameter(
      "w_h", XavierUniform({hidden_size, gates}, hidden_size, hidden_size,
                           rng));
  ts::Tensor b = ts::Tensor::Zeros({gates});
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b.flat(i) = 1.0f;
  bias_ = RegisterParameter("bias", b);
}

LstmCell::State LstmCell::InitialState(int64_t n) const {
  return State{ag::Variable(ts::Tensor::Zeros({n, hidden_size_})),
               ag::Variable(ts::Tensor::Zeros({n, hidden_size_}))};
}

LstmCell::State LstmCell::Step(const ag::Variable& x, const State& prev) {
  ag::Variable gates = ag::Add(
      ag::Add(ag::MatMul(x, w_x_), ag::MatMul(prev.h, w_h_)), bias_);
  const int64_t hs = hidden_size_;
  ag::Variable i = ag::Sigmoid(ag::Slice(gates, 1, 0, hs));
  ag::Variable f = ag::Sigmoid(ag::Slice(gates, 1, hs, 2 * hs));
  ag::Variable g = ag::Tanh(ag::Slice(gates, 1, 2 * hs, 3 * hs));
  ag::Variable o = ag::Sigmoid(ag::Slice(gates, 1, 3 * hs, 4 * hs));
  State next;
  next.c = ag::Add(ag::Mul(f, prev.c), ag::Mul(i, g));
  next.h = ag::Mul(o, ag::Tanh(next.c));
  return next;
}

// --- ConvLstmCell -----------------------------------------------------------

ConvLstmCell::ConvLstmCell(int64_t in_channels, int64_t hidden_channels,
                           int64_t kernel, Rng& rng)
    : hidden_channels_(hidden_channels) {
  GEO_CHECK_EQ(kernel % 2, 1) << "ConvLSTM kernel must be odd (same pad)";
  spec_.stride = 1;
  spec_.padding = kernel / 2;
  const int64_t gates = 4 * hidden_channels;
  w_x_ = RegisterParameter(
      "w_x", XavierUniform({gates, in_channels, kernel, kernel},
                           in_channels * kernel * kernel,
                           hidden_channels * kernel * kernel, rng));
  w_h_ = RegisterParameter(
      "w_h", XavierUniform({gates, hidden_channels, kernel, kernel},
                           hidden_channels * kernel * kernel,
                           hidden_channels * kernel * kernel, rng));
  // Forget-gate bias starts positive so early training remembers.
  ts::Tensor b = ts::Tensor::Zeros({gates});
  for (int64_t i = hidden_channels; i < 2 * hidden_channels; ++i) {
    b.flat(i) = 1.0f;
  }
  bias_ = RegisterParameter("bias", b);
}

ConvLstmCell::State ConvLstmCell::InitialState(int64_t n, int64_t h,
                                               int64_t w) const {
  return State{
      ag::Variable(ts::Tensor::Zeros({n, hidden_channels_, h, w})),
      ag::Variable(ts::Tensor::Zeros({n, hidden_channels_, h, w}))};
}

ConvLstmCell::State ConvLstmCell::Step(const ag::Variable& x,
                                       const State& prev) {
  ag::Variable gates = ag::Add(ag::Conv2d(x, w_x_, bias_, spec_),
                               ag::Conv2d(prev.h, w_h_, ag::Variable(), spec_));
  const int64_t hc = hidden_channels_;
  ag::Variable i = ag::Sigmoid(ag::Slice(gates, 1, 0, hc));
  ag::Variable f = ag::Sigmoid(ag::Slice(gates, 1, hc, 2 * hc));
  ag::Variable g = ag::Tanh(ag::Slice(gates, 1, 2 * hc, 3 * hc));
  ag::Variable o = ag::Sigmoid(ag::Slice(gates, 1, 3 * hc, 4 * hc));
  State next;
  next.c = ag::Add(ag::Mul(f, prev.c), ag::Mul(i, g));
  next.h = ag::Mul(o, ag::Tanh(next.c));
  return next;
}

}  // namespace geotorch::nn
