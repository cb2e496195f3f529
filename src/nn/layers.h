#ifndef GEOTORCH_NN_LAYERS_H_
#define GEOTORCH_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "tensor/gemm.h"

namespace geotorch::nn {

class BatchNorm2d;

/// True when `m` may take the fused eval path: eval mode, not
/// calibrating (calibration must observe the unfused per-layer
/// activations), and no gradient graph being recorded. The unfused
/// autograd forward (what training runs) is the f32 reference: the same
/// eval-mode model with gradients enabled computes it.
bool FusedEvalEligible(const Module& m);

/// Fully connected layer: y = x @ W + b with x: (N, in), W: (in, out).
///
/// In eval mode with gradients disabled, SetPrecision(kInt8) routes the
/// matmul through the int8 GEMM (DESIGN.md §10): per-output-channel
/// symmetric weight scales and a per-tensor activation scale (static
/// when calibrated via SetCalibrating, else per-batch). The int8 forward
/// is ForwardFusedEval with no activation, so each layer has one
/// low-precision code path.
class Linear : public UnaryModule {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool bias = true);
  autograd::Variable Forward(const autograd::Variable& x) override;

  /// Eval-only fused forward: bias and the given activation run as GEMM
  /// epilogue passes instead of separate full-tensor ops. Bitwise
  /// identical to Forward followed by the matching activation op (the
  /// epilogue applies the same per-element formulas in the same order).
  /// Caller must have checked FusedEvalEligible.
  autograd::Variable ForwardFusedEval(const autograd::Variable& x,
                                      tensor::EpilogueAct act,
                                      float leaky_slope = 0.01f);

 protected:
  void OnPrecisionChanged() override;

 private:
  autograd::Variable weight_;
  autograd::Variable bias_;
  bool has_bias_;
  // int8 weight cache, rebuilt by SetPrecision from the current f32
  // parameters (empty in f32 mode). It holds the weight pre-packed in
  // the GEMM panel layout (Int8PackedB) so serving skips the per-call B
  // pack; it is derived state and is never persisted.
  std::vector<int8_t> w_q_;
  std::vector<float> w_scales_;
  float act_absmax_ = 0.0f;  // recorded during calibration; 0 = dynamic
};

/// 2-D convolution over NCHW input. Supports the same eval-time int8
/// mode as Linear (per-output-channel int8 weight scales, i.e. per row
/// of the flattened (F, C*KH*KW) weight matrix), again through
/// ForwardFusedEval with no activation. The quantized weights are packed
/// for ConvDirectInt8 at SetPrecision (and at each conv+BN fold), never
/// per call. A layer with C*KH*KW > kConvInt8MaxK stays in f32.
class Conv2d : public UnaryModule {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         Rng& rng, int64_t stride = 1, int64_t padding = 0,
         bool bias = true);
  autograd::Variable Forward(const autograd::Variable& x) override;

  /// Eval-only fused forward. When `bn` is non-null its running
  /// statistics and affine are folded into the convolution weights and
  /// bias (W' = W·scale_f, b' = b·scale_f + shift_f per output channel)
  /// from a cached snapshot keyed on both modules' state versions; low
  /// precision quantizes the folded f32 weights, never the other way
  /// round. The activation runs as a GEMM epilogue. Without `bn` the
  /// result is bitwise identical to Forward plus the activation op;
  /// with `bn` it matches conv→BN→act within a small relative error
  /// (the fold reassociates the per-channel multiplies).
  /// Caller must have checked FusedEvalEligible.
  autograd::Variable ForwardFusedEval(const autograd::Variable& x,
                                      const BatchNorm2d* bn,
                                      tensor::EpilogueAct act,
                                      float leaky_slope = 0.01f);

 protected:
  void OnPrecisionChanged() override;

 private:
  /// Folded-weight snapshot for conv+BN fusion. Rebuilt lazily under
  /// fold_mu_ whenever either module's state version moved or the
  /// precision changed; safe to build lazily from concurrent forwards
  /// because the first builder holds the mutex and later readers see a
  /// version match. Mutating the modules while forwards are in flight
  /// is excluded by the serving contract (copy-on-swap hot reload).
  struct FoldedCache {
    const BatchNorm2d* bn = nullptr;
    uint64_t conv_version = 0;
    uint64_t bn_version = 0;
    Precision precision = Precision::kF32;
    bool valid = false;
    tensor::Tensor w;  // folded f32 weight, same shape as weight_
    tensor::Tensor b;  // folded f32 bias (F)
    tensor::Int8ConvWeights w_int8;
  };
  void RefreshFoldedCache(const BatchNorm2d& bn, Precision prec);

  autograd::Variable weight_;
  autograd::Variable bias_;
  tensor::ConvSpec spec_;
  bool has_bias_;
  // int8 weight cache, packed by SetPrecision (empty in f32 mode).
  tensor::Int8ConvWeights w_int8_;
  float act_absmax_ = 0.0f;
  std::mutex fold_mu_;
  FoldedCache fold_;
};

/// Transposed 2-D convolution (upsampling decoder layers).
class ConvTranspose2d : public UnaryModule {
 public:
  ConvTranspose2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
                  Rng& rng, int64_t stride = 1, int64_t padding = 0,
                  bool bias = true);
  autograd::Variable Forward(const autograd::Variable& x) override;

 private:
  autograd::Variable weight_;
  autograd::Variable bias_;
  tensor::ConvSpec spec_;
  bool has_bias_;
};

/// Batch normalization over the channel dim of NCHW input. Keeps
/// running statistics for eval mode.
class BatchNorm2d : public UnaryModule {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);
  autograd::Variable Forward(const autograd::Variable& x) override;

  const tensor::Tensor& running_mean() const { return running_mean_; }
  const tensor::Tensor& running_var() const { return running_var_; }
  int64_t channels() const { return channels_; }

  /// The per-channel affine equivalent of this layer's eval transform:
  /// y_c = scale_c · x_c + shift_c with scale_c = γ_c·inv_std_c and
  /// shift_c = β_c − μ_c·scale_c. This is what a preceding Conv2d folds
  /// into its weights. Served from the same cached inv_std as the
  /// unfused eval forward, so both paths normalize with identical
  /// per-channel constants.
  void FoldedAffine(std::vector<float>* scale,
                    std::vector<float>* shift) const;

 private:
  /// (Re)computes the cached eval-path constants — the inv_std tensor
  /// the unfused eval forward multiplies by, and the folded per-channel
  /// affine — iff the state version moved since the last build. The
  /// cached inv_std is produced by the exact op sequence the uncached
  /// eval path used (PowScalar(AddScalar(var, eps), -0.5)), keeping the
  /// unfused eval output bitwise unchanged.
  void RefreshEvalCache() const;

  autograd::Variable gamma_;
  autograd::Variable beta_;
  tensor::Tensor running_mean_;  // (1, C, 1, 1)
  tensor::Tensor running_var_;
  float eps_;
  float momentum_;
  int64_t channels_;
  mutable std::mutex cache_mu_;
  mutable uint64_t cache_version_ = 0;
  mutable bool cache_valid_ = false;
  mutable tensor::Tensor inv_std_;  // (1, C, 1, 1)
  mutable std::vector<float> fold_scale_;
  mutable std::vector<float> fold_shift_;
};

/// Inverted dropout; identity in eval mode.
class Dropout : public UnaryModule {
 public:
  explicit Dropout(float p, uint64_t seed = 17);
  autograd::Variable Forward(const autograd::Variable& x) override;

 private:
  float p_;
  Rng rng_;
};

/// Stateless activation layers (composable in Sequential).
class ReluLayer : public UnaryModule {
 public:
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::Relu(x);
  }
};
class SigmoidLayer : public UnaryModule {
 public:
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::Sigmoid(x);
  }
};
class LeakyReluLayer : public UnaryModule {
 public:
  explicit LeakyReluLayer(float slope = 0.01f) : slope_(slope) {}
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::LeakyRelu(x, slope_);
  }
  float slope() const { return slope_; }

 private:
  float slope_;
};
class TanhLayer : public UnaryModule {
 public:
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::Tanh(x);
  }
};

/// Max pooling with stride == kernel.
class MaxPool2d : public UnaryModule {
 public:
  explicit MaxPool2d(int64_t kernel) : kernel_(kernel) {}
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::MaxPool2d(x, kernel_);
  }

 private:
  int64_t kernel_;
};

/// Average pooling with stride == kernel.
class AvgPool2d : public UnaryModule {
 public:
  explicit AvgPool2d(int64_t kernel) : kernel_(kernel) {}
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::AvgPool2d(x, kernel_);
  }

 private:
  int64_t kernel_;
};

/// Nearest-neighbour 2x upsampling.
class Upsample2x : public UnaryModule {
 public:
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::UpsampleNearest2x(x);
  }
};

/// Flattens (N, ...) to (N, rest).
class Flatten : public UnaryModule {
 public:
  autograd::Variable Forward(const autograd::Variable& x) override {
    return autograd::Reshape(x, {x.shape()[0], -1});
  }
};

/// Runs child modules in order. Owns them.
class Sequential : public UnaryModule {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<UnaryModule> layer);

  /// Convenience: emplace a layer of type T.
  template <typename T, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<T>(std::forward<Args>(args)...));
  }

  autograd::Variable Forward(const autograd::Variable& x) override;
  size_t size() const { return layers_.size(); }

 private:
  /// Fused eval walk: scans for Conv2d→[BatchNorm2d]→[activation] and
  /// Linear→[activation] runs and dispatches each as one fused call;
  /// anything else forwards layer by layer as before.
  autograd::Variable ForwardFusedEval(const autograd::Variable& x);

  std::vector<std::unique_ptr<UnaryModule>> layers_;
};

/// Plain (fully connected) LSTM cell over feature vectors. Used by the
/// STDN/DMVST-style hybrid models that attach an LSTM to per-timestep
/// CNN features (Section II-B of the paper).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  struct State {
    autograd::Variable h;  // (N, hidden)
    autograd::Variable c;  // (N, hidden)
  };

  /// Zero state for a batch of n.
  State InitialState(int64_t n) const;

  /// One timestep: x is (N, input_size).
  State Step(const autograd::Variable& x, const State& prev);

  int64_t hidden_size() const { return hidden_size_; }

 private:
  autograd::Variable w_x_;   // (input, 4*hidden)
  autograd::Variable w_h_;   // (hidden, 4*hidden)
  autograd::Variable bias_;  // (4*hidden)
  int64_t hidden_size_;
};

/// Convolutional LSTM cell (Shi et al., 2015): the recurrent unit of
/// the paper's ConvLSTM precipitation-nowcasting model. All gates are
/// convolutions; state h/c are (N, hidden, H, W).
class ConvLstmCell : public Module {
 public:
  ConvLstmCell(int64_t in_channels, int64_t hidden_channels, int64_t kernel,
               Rng& rng);

  struct State {
    autograd::Variable h;
    autograd::Variable c;
  };

  /// Zero-initialized state for a batch of n frames of h x w.
  State InitialState(int64_t n, int64_t h, int64_t w) const;

  /// One timestep: consumes x_t (N, in, H, W) and the previous state.
  State Step(const autograd::Variable& x, const State& prev);

  int64_t hidden_channels() const { return hidden_channels_; }

 private:
  autograd::Variable w_x_;  // (4*hidden, in, k, k)
  autograd::Variable w_h_;  // (4*hidden, hidden, k, k)
  autograd::Variable bias_;  // (4*hidden)
  tensor::ConvSpec spec_;
  int64_t hidden_channels_;
};

}  // namespace geotorch::nn

#endif  // GEOTORCH_NN_LAYERS_H_
