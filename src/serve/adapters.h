#ifndef GEOTORCH_SERVE_ADAPTERS_H_
#define GEOTORCH_SERVE_ADAPTERS_H_

#include "models/grid_models.h"
#include "models/raster_models.h"
#include "nn/module.h"
#include "serve/engine.h"

namespace geotorch::serve {

/// Adapters wrapping this repo's model families as Engine::BatchForward
/// closures. Each puts the model in eval mode once, applies the
/// requested serving precision (f32 default; int8 quantizes and
/// panel-packs the weights right here, once, so per-request forwards
/// pay no conversion — DESIGN.md §10), and runs every forward under
/// NoGradGuard — serving never records tape. The caller keeps
/// ownership of the model and must outlive the Engine. Wire
/// EngineOptions::FromEnv().precision through to honor
/// GEOTORCH_SERVE_PRECISION.

/// Grid predictors (PeriodicalCnn, ConvLstm, StResNet, DeepStnPlus):
/// the whole Batch (x + extras) goes to Forward.
Engine::BatchForward GridForward(models::GridModel& model,
                                 nn::Precision precision = nn::Precision::kF32);

/// Raster classifiers (SatCnn, DeepSat, DeepSatV2): batch.x is the
/// image stack; batch.extras[0], when present, is the handcrafted
/// feature matrix (DeepSAT-V2), otherwise features are empty.
Engine::BatchForward ClassifierForward(
    models::RasterClassifier& model,
    nn::Precision precision = nn::Precision::kF32);

/// Single-input models (Fcn, UNet, UNetPlusPlus and any UnaryModule):
/// batch.x in, output out; extras are ignored.
Engine::BatchForward UnaryForward(nn::UnaryModule& model,
                                  nn::Precision precision = nn::Precision::kF32);

}  // namespace geotorch::serve

#endif  // GEOTORCH_SERVE_ADAPTERS_H_
