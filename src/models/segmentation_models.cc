#include "models/segmentation_models.h"

namespace geotorch::models {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;

DoubleConv::DoubleConv(int64_t in, int64_t out, Rng& rng)
    : conv1_(in, out, 3, rng, 1, 1), conv2_(out, out, 3, rng, 1, 1) {
  RegisterModule("conv1", &conv1_);
  RegisterModule("conv2", &conv2_);
}

ag::Variable DoubleConv::Forward(const ag::Variable& x) {
  if (nn::FusedEvalEligible(*this)) {
    return conv2_.ForwardFusedEval(
        conv1_.ForwardFusedEval(x, nullptr, ts::EpilogueAct::kRelu), nullptr,
        ts::EpilogueAct::kRelu);
  }
  return ag::Relu(conv2_.Forward(ag::Relu(conv1_.Forward(x))));
}

// --- Fcn --------------------------------------------------------------------

Fcn::Fcn(const SegModelConfig& config)
    : config_(config),
      enc1_(config.in_channels, config.base_filters,
            *std::make_unique<Rng>(config.seed)),
      enc2_(config.base_filters, 2 * config.base_filters,
            *std::make_unique<Rng>(config.seed + 1)),
      enc3_(2 * config.base_filters, 4 * config.base_filters,
            *std::make_unique<Rng>(config.seed + 2)),
      score3_(4 * config.base_filters, config.num_classes, 1,
              *std::make_unique<Rng>(config.seed + 3)),
      score2_(2 * config.base_filters, config.num_classes, 1,
              *std::make_unique<Rng>(config.seed + 4)),
      score1_(config.base_filters, config.num_classes, 1,
              *std::make_unique<Rng>(config.seed + 5)) {
  RegisterModule("enc1", &enc1_);
  RegisterModule("enc2", &enc2_);
  RegisterModule("enc3", &enc3_);
  RegisterModule("score3", &score3_);
  RegisterModule("score2", &score2_);
  RegisterModule("score1", &score1_);
}

ag::Variable Fcn::Forward(const ag::Variable& x) {
  ag::Variable f1 = enc1_.Forward(x);                      // full res
  ag::Variable f2 = enc2_.Forward(ag::MaxPool2d(f1, 2));   // 1/2
  ag::Variable f3 = enc3_.Forward(ag::MaxPool2d(f2, 2));   // 1/4
  // Score at the coarsest scale, then fuse skips while upsampling.
  ag::Variable s = score3_.Forward(f3);
  s = ag::Add(ag::UpsampleNearest2x(s), score2_.Forward(f2));
  s = ag::Add(ag::UpsampleNearest2x(s), score1_.Forward(f1));
  return s;
}

// --- UNet -------------------------------------------------------------------

UNet::UNet(const SegModelConfig& config)
    : config_(config),
      enc1_(config.in_channels, config.base_filters,
            *std::make_unique<Rng>(config.seed + 10)),
      enc2_(config.base_filters, 2 * config.base_filters,
            *std::make_unique<Rng>(config.seed + 11)),
      bottleneck_(2 * config.base_filters, 4 * config.base_filters,
                  *std::make_unique<Rng>(config.seed + 12)),
      up2_(4 * config.base_filters, 2 * config.base_filters, 2,
           *std::make_unique<Rng>(config.seed + 13), 2, 0),
      dec2_(4 * config.base_filters, 2 * config.base_filters,
            *std::make_unique<Rng>(config.seed + 14)),
      up1_(2 * config.base_filters, config.base_filters, 2,
           *std::make_unique<Rng>(config.seed + 15), 2, 0),
      dec1_(2 * config.base_filters, config.base_filters,
            *std::make_unique<Rng>(config.seed + 16)),
      head_(config.base_filters, config.num_classes, 1,
            *std::make_unique<Rng>(config.seed + 17)) {
  RegisterModule("enc1", &enc1_);
  RegisterModule("enc2", &enc2_);
  RegisterModule("bottleneck", &bottleneck_);
  RegisterModule("up2", &up2_);
  RegisterModule("dec2", &dec2_);
  RegisterModule("up1", &up1_);
  RegisterModule("dec1", &dec1_);
  RegisterModule("head", &head_);
}

ag::Variable UNet::Forward(const ag::Variable& x) {
  ag::Variable e1 = enc1_.Forward(x);                       // full
  ag::Variable e2 = enc2_.Forward(ag::MaxPool2d(e1, 2));    // 1/2
  ag::Variable b = bottleneck_.Forward(ag::MaxPool2d(e2, 2));  // 1/4
  ag::Variable d2 = dec2_.Forward(ag::Concat({up2_.Forward(b), e2}, 1));
  ag::Variable d1 = dec1_.Forward(ag::Concat({up1_.Forward(d2), e1}, 1));
  return head_.Forward(d1);
}

// --- UNetPlusPlus ---------------------------------------------------------

UNetPlusPlus::UNetPlusPlus(const SegModelConfig& config)
    : config_(config),
      x00_(config.in_channels, config.base_filters,
           *std::make_unique<Rng>(config.seed + 20)),
      x10_(config.base_filters, 2 * config.base_filters,
           *std::make_unique<Rng>(config.seed + 21)),
      x20_(2 * config.base_filters, 4 * config.base_filters,
           *std::make_unique<Rng>(config.seed + 22)),
      up10_(2 * config.base_filters, config.base_filters, 2,
            *std::make_unique<Rng>(config.seed + 23), 2, 0),
      x01_(2 * config.base_filters, config.base_filters,
           *std::make_unique<Rng>(config.seed + 24)),
      up20_(4 * config.base_filters, 2 * config.base_filters, 2,
            *std::make_unique<Rng>(config.seed + 25), 2, 0),
      x11_(4 * config.base_filters, 2 * config.base_filters,
           *std::make_unique<Rng>(config.seed + 26)),
      up11_(2 * config.base_filters, config.base_filters, 2,
            *std::make_unique<Rng>(config.seed + 27), 2, 0),
      x02_(3 * config.base_filters, config.base_filters,
           *std::make_unique<Rng>(config.seed + 28)),
      head_(config.base_filters, config.num_classes, 1,
            *std::make_unique<Rng>(config.seed + 29)) {
  RegisterModule("x00", &x00_);
  RegisterModule("x10", &x10_);
  RegisterModule("x20", &x20_);
  RegisterModule("up10", &up10_);
  RegisterModule("x01", &x01_);
  RegisterModule("up20", &up20_);
  RegisterModule("x11", &x11_);
  RegisterModule("up11", &up11_);
  RegisterModule("x02", &x02_);
  RegisterModule("head", &head_);
}

ag::Variable UNetPlusPlus::Forward(const ag::Variable& x) {
  // Encoder column.
  ag::Variable n00 = x00_.Forward(x);                       // full
  ag::Variable n10 = x10_.Forward(ag::MaxPool2d(n00, 2));   // 1/2
  ag::Variable n20 = x20_.Forward(ag::MaxPool2d(n10, 2));   // 1/4
  // First nested column.
  ag::Variable n01 =
      x01_.Forward(ag::Concat({n00, up10_.Forward(n10)}, 1));
  ag::Variable n11 =
      x11_.Forward(ag::Concat({n10, up20_.Forward(n20)}, 1));
  // Dense second column: sees X(0,0), X(0,1), up(X(1,1)).
  ag::Variable n02 =
      x02_.Forward(ag::Concat({n00, n01, up11_.Forward(n11)}, 1));
  return head_.Forward(n02);
}

}  // namespace geotorch::models
