#ifndef GEOTORCH_TENSOR_CONV_H_
#define GEOTORCH_TENSOR_CONV_H_

#include <utility>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace geotorch::tensor {

/// Spatial convolution parameters (square stride/padding kept separate
/// per axis is not needed by any model in the paper).
struct ConvSpec {
  int64_t stride = 1;
  int64_t padding = 0;
};

/// Output spatial size of a convolution: (in + 2p - k) / s + 1.
int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t stride,
                    int64_t padding);

/// im2col: unfolds (C, H, W) patches of `x[n]` into a (C*KH*KW, OH*OW)
/// matrix, zero-padding out-of-range taps. `x` is (N, C, H, W); the
/// returned tensor covers sample `n` only.
Tensor Im2Col(const Tensor& x, int64_t n, int64_t kh, int64_t kw,
              const ConvSpec& spec);

/// col2im: scatter-adds a (C*KH*KW, OH*OW) matrix back into an
/// (C, H, W) image (the adjoint of Im2Col). Accumulates into `out[n]`.
void Col2ImAdd(const Tensor& cols, Tensor& out, int64_t n, int64_t kh,
               int64_t kw, const ConvSpec& spec);

/// 2-D convolution. x: (N, C, H, W), w: (F, C, KH, KW), bias: (F) or
/// empty. Returns (N, F, OH, OW). Dispatches per-sample work to the
/// current Device backend. The one f32 forward for training and eval
/// (DESIGN.md §13): bias and `act` run as a GEMM epilogue in the kernel
/// write-back, and the patch matrix is never materialized at stride 1 —
/// the direct im2col-free kernel reads the input image, and 1×1
/// stride-1 unpadded convs use the (C, H·W) input plane as the patch
/// matrix. `act` uses the exact elementwise formulas of tensor/ops.cc,
/// so the output is bitwise identical to im2col + Gemm followed by
/// separate bias and activation passes.
Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     const ConvSpec& spec,
                     EpilogueAct act = EpilogueAct::kNone,
                     float leaky_slope = 0.01f);

/// The int8 eval-path convolution (DESIGN.md §10, §13). `w` holds the
/// (F, C, KH, KW) weights quantized per output channel and packed by
/// PackInt8ConvWeights. `act_scale` is the per-tensor activation scale;
/// pass 0 to derive it from this batch's absmax, computed once over the
/// whole batch so serial and parallel runs quantize identically. Each
/// sample quantizes its own input plane (elementwise quantization
/// commutes with the im2col gather, and zero padding quantizes to 0)
/// and runs ConvDirectInt8 on it: exact i32 sums of u8 (q + 128)
/// activations times int8 weights, less 128·Σw per filter. Bias and
/// `act` run as an epilogue after dequantization; EpilogueAct::kNone
/// gives a plain conv. The output is bitwise identical to Im2Col +
/// QuantizeInt8 + GemmInt8 followed by separate bias and activation
/// passes whenever C·KH·KW <= kKCInt8. Eval-only: no backward exists.
Tensor Conv2dForwardInt8(const Tensor& x, const Int8ConvWeights& w,
                         float act_scale, const Tensor& bias,
                         const ConvSpec& spec,
                         EpilogueAct act = EpilogueAct::kNone,
                         float leaky_slope = 0.01f);

struct Conv2dGrads {
  Tensor grad_x;
  Tensor grad_w;
  Tensor grad_bias;  // empty if the forward had no bias
};

/// Gradients of Conv2dForward wrt input, weights, and bias. With
/// `need_grad_x` false (the input is data), grad_x is left empty and
/// its GEMM skipped; grad_w and grad_bias are unchanged. Stride-1
/// problems past the reference-GEMM threshold run the direct backward
/// kernels (DESIGN.md §13), bitwise equal to im2col + Gemm + col2im.
Conv2dGrads Conv2dBackward(const Tensor& grad_out, const Tensor& x,
                           const Tensor& w, bool has_bias,
                           const ConvSpec& spec, bool need_grad_x = true);

/// Transposed convolution ("deconvolution"). x: (N, C, H, W),
/// w: (C, F, KH, KW), bias: (F) or empty.
/// Output: (N, F, (H-1)*s - 2p + KH, (W-1)*s - 2p + KW).
Tensor ConvTranspose2dForward(const Tensor& x, const Tensor& w,
                              const Tensor& bias, const ConvSpec& spec);

struct ConvTranspose2dGrads {
  Tensor grad_x;
  Tensor grad_w;
  Tensor grad_bias;
};

ConvTranspose2dGrads ConvTranspose2dBackward(const Tensor& grad_out,
                                             const Tensor& x, const Tensor& w,
                                             bool has_bias,
                                             const ConvSpec& spec);

/// Max pooling with stride == kernel. Returns the pooled tensor and the
/// flat input offset of each winner (needed by the backward pass).
/// Pooling and upsampling kernels spread the N*C plane loop over the
/// pool, each plane weighted by its size (ThreadPool::Chunks).
std::pair<Tensor, std::vector<int64_t>> MaxPool2dForward(const Tensor& x,
                                                         int64_t kernel);

/// Eval max pooling: MaxPool2dForward's output, bitwise (NaN and -0/+0
/// included), without building the argmax vector. autograd::MaxPool2d
/// runs it when no gradient can flow to the input.
Tensor MaxPool2dEval(const Tensor& x, int64_t kernel);

/// Scatter of grad_out back through the argmax indices.
Tensor MaxPool2dBackward(const Tensor& grad_out, const Shape& input_shape,
                         const std::vector<int64_t>& argmax);

/// Average pooling with stride == kernel over (N, C, H, W).
Tensor AvgPool2dForward(const Tensor& x, int64_t kernel);
/// Adjoint: spreads each output gradient uniformly over its window.
Tensor AvgPool2dBackward(const Tensor& grad_out, const Shape& input_shape,
                         int64_t kernel);

/// Nearest-neighbour 2x upsampling of (N, C, H, W).
Tensor UpsampleNearest2x(const Tensor& x);
/// Adjoint of UpsampleNearest2x (sums each 2x2 block).
Tensor UpsampleNearest2xBackward(const Tensor& grad_out);

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_CONV_H_
