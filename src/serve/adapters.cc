#include "serve/adapters.h"

#include "autograd/variable.h"

namespace geotorch::serve {

namespace ag = ::geotorch::autograd;

// Every adapter puts the model in eval mode with gradients disabled,
// which is exactly the gate for the fused eval path (BN folding, GEMM
// bias+activation epilogues, im2col-free 1x1 conv), so Engine and Fleet
// always serve fused.

Engine::BatchForward GridForward(models::GridModel& model,
                                 nn::Precision precision) {
  model.SetTraining(false);
  model.SetPrecision(precision);
  return [&model](const data::Batch& batch) {
    ag::NoGradGuard no_grad;
    return model.Forward(batch).value();
  };
}

Engine::BatchForward ClassifierForward(models::RasterClassifier& model,
                                       nn::Precision precision) {
  model.SetTraining(false);
  model.SetPrecision(precision);
  return [&model](const data::Batch& batch) {
    ag::NoGradGuard no_grad;
    ag::Variable x(batch.x);
    ag::Variable features = batch.extras.empty()
                                ? ag::Variable()
                                : ag::Variable(batch.extras[0]);
    return model.Forward(x, features).value();
  };
}

Engine::BatchForward UnaryForward(nn::UnaryModule& model,
                                  nn::Precision precision) {
  model.SetTraining(false);
  model.SetPrecision(precision);
  return [&model](const data::Batch& batch) {
    ag::NoGradGuard no_grad;
    return model.Forward(ag::Variable(batch.x)).value();
  };
}

}  // namespace geotorch::serve
