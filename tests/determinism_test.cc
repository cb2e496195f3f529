// Serial vs parallel bitwise determinism. The blocked GEMM fixes its
// K-accumulation order regardless of how work is split across threads,
// and every parallel loop writes disjoint outputs — so one training
// step must produce bit-identical losses and gradients on
// Device::kSerial and Device::kParallel. This test runs one
// forward/backward for every grid and raster model on both devices and
// compares the float bit patterns exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "data/dataloader.h"
#include "datasets/benchmarks.h"
#include "models/grid_models.h"
#include "models/raster_models.h"
#include "models/segmentation_models.h"
#include "models/trainer.h"
#include "nn/precision.h"
#include "tensor/device.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;
namespace data = ::geotorch::data;
namespace datasets = ::geotorch::datasets;
namespace models = ::geotorch::models;

// The float bit patterns of a tensor, for exact comparison.
std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  if (t.numel() > 0) {
    std::memcpy(bits.data(), t.data(), t.numel() * sizeof(uint32_t));
  }
  return bits;
}

struct StepResult {
  std::vector<uint32_t> loss_bits;
  std::vector<std::vector<uint32_t>> grad_bits;
};

// Runs one forward/backward of a freshly built model on `device` and
// captures the bit patterns of the loss and every parameter gradient.
template <typename MakeModel, typename LossFn>
StepResult RunStep(ts::Device device, const MakeModel& make_model,
                   const LossFn& loss_fn) {
  ts::DeviceGuard guard(device);
  auto model = make_model();
  ag::Variable loss = loss_fn(*model);
  loss.Backward();
  StepResult result;
  result.loss_bits = Bits(loss.value());
  for (const ag::Variable& p : model->Parameters()) {
    EXPECT_TRUE(p.has_grad()) << "parameter missing gradient";
    result.grad_bits.push_back(p.has_grad() ? Bits(p.grad())
                                            : std::vector<uint32_t>{});
  }
  return result;
}

template <typename MakeModel, typename LossFn>
void ExpectDeterministic(const std::string& label,
                         const MakeModel& make_model, const LossFn& loss_fn) {
  const StepResult serial =
      RunStep(ts::Device::kSerial, make_model, loss_fn);
  const StepResult parallel =
      RunStep(ts::Device::kParallel, make_model, loss_fn);
  EXPECT_EQ(serial.loss_bits, parallel.loss_bits)
      << label << ": loss differs between serial and parallel";
  ASSERT_EQ(serial.grad_bits.size(), parallel.grad_bits.size()) << label;
  for (size_t i = 0; i < serial.grad_bits.size(); ++i) {
    EXPECT_EQ(serial.grad_bits[i], parallel.grad_bits[i])
        << label << ": gradient of parameter " << i
        << " differs between serial and parallel";
  }
}

data::Batch FirstBatch(const data::Dataset& ds, int64_t batch_size) {
  data::DataLoader loader(&ds, batch_size, /*shuffle=*/false);
  data::Batch batch;
  EXPECT_TRUE(loader.Next(&batch));
  return batch;
}

// --- Grid models -----------------------------------------------------------

enum class GridKind { kPeriodicalCnn, kConvLstm, kStResNet, kDeepStnPlus };

void RunGridDeterminism(GridKind kind, const std::string& label) {
  // 16x32 grid: the first conv's im2col GEMM clears the parallel-path
  // work threshold, so the parallel run genuinely fans out. The trend
  // component reaches back one week (7 * 24 steps), so give the
  // synthetic series a bit more than that.
  datasets::GridDataset ds =
      datasets::MakeTemperature(/*timesteps=*/200, /*height=*/16,
                                /*width=*/32, /*seed=*/7);
  ds.MinMaxNormalize();

  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 16;
  mc.seed = 42;

  if (kind == GridKind::kConvLstm) {
    ds.SetSequentialRepresentation(/*history=*/4, /*prediction=*/1);
  } else {
    ds.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                   mc.len_trend);
  }
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);

  auto make_model = [&]() -> std::unique_ptr<models::GridModel> {
    switch (kind) {
      case GridKind::kPeriodicalCnn:
        return std::make_unique<models::PeriodicalCnn>(mc);
      case GridKind::kConvLstm:
        return std::make_unique<models::ConvLstm>(mc, 1);
      case GridKind::kStResNet:
        return std::make_unique<models::StResNet>(mc);
      case GridKind::kDeepStnPlus:
        return std::make_unique<models::DeepStnPlus>(mc);
    }
    return nullptr;
  };
  auto loss_fn = [&batch](models::GridModel& model) {
    return ag::MseLoss(model.Forward(batch), batch.y);
  };
  ExpectDeterministic(label, make_model, loss_fn);
}

TEST(DeterminismTest, PeriodicalCnn) {
  RunGridDeterminism(GridKind::kPeriodicalCnn, "PeriodicalCnn");
}
TEST(DeterminismTest, ConvLstm) {
  RunGridDeterminism(GridKind::kConvLstm, "ConvLstm");
}
TEST(DeterminismTest, StResNet) {
  RunGridDeterminism(GridKind::kStResNet, "StResNet");
}
TEST(DeterminismTest, DeepStnPlus) {
  RunGridDeterminism(GridKind::kDeepStnPlus, "DeepStnPlus");
}

// --- Raster classifiers ----------------------------------------------------

TEST(DeterminismTest, SatCnn) {
  datasets::RasterClassificationDataset ds =
      datasets::MakeEuroSat(/*n=*/16, {}, /*seed=*/3);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);

  models::RasterModelConfig rc;
  rc.in_channels = 13;
  rc.in_height = 64;
  rc.in_width = 64;
  rc.num_classes = 10;
  rc.base_filters = 16;
  rc.seed = 42;

  auto make_model = [&] { return std::make_unique<models::SatCnn>(rc); };
  auto loss_fn = [&batch](models::SatCnn& model) {
    ag::Variable logits = model.Forward(ag::Variable(batch.x), {});
    return ag::CrossEntropyLoss(logits,
                                batch.y.Reshape({batch.y.numel()}));
  };
  ExpectDeterministic("SatCnn", make_model, loss_fn);
}

TEST(DeterminismTest, DeepSatV2) {
  datasets::RasterDatasetOptions options;
  options.include_additional_features = true;
  datasets::RasterClassificationDataset ds =
      datasets::MakeEuroSat(/*n=*/16, options, /*seed=*/3);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);
  ASSERT_FALSE(batch.extras.empty());

  models::RasterModelConfig rc;
  rc.in_channels = 13;
  rc.in_height = 64;
  rc.in_width = 64;
  rc.num_classes = 10;
  rc.num_filtered_features = ds.num_additional_features();
  rc.base_filters = 16;
  rc.seed = 42;

  auto make_model = [&] { return std::make_unique<models::DeepSatV2>(rc); };
  auto loss_fn = [&batch](models::DeepSatV2& model) {
    ag::Variable logits = model.Forward(ag::Variable(batch.x),
                                        ag::Variable(batch.extras[0]));
    return ag::CrossEntropyLoss(logits,
                                batch.y.Reshape({batch.y.numel()}));
  };
  ExpectDeterministic("DeepSatV2", make_model, loss_fn);
}

// --- Segmentation models ---------------------------------------------------

template <typename Model>
void RunSegDeterminism(const std::string& label) {
  datasets::RasterSegmentationDataset ds =
      datasets::MakeCloud38(/*n=*/8, /*size=*/32, {}, /*seed=*/5);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/2);

  models::SegModelConfig sc;
  sc.in_channels = 4;
  sc.num_classes = 2;
  sc.base_filters = 8;
  sc.seed = 42;

  auto make_model = [&] { return std::make_unique<Model>(sc); };
  auto loss_fn = [&batch](Model& model) {
    return ag::CrossEntropyLoss(model.Forward(ag::Variable(batch.x)),
                                batch.y);
  };
  ExpectDeterministic(label, make_model, loss_fn);
}

// --- Checkpoint / resume ---------------------------------------------------

// Training N epochs straight through must be bitwise identical to
// training k epochs, checkpointing, and resuming a FRESH model from
// that checkpoint for the remaining N-k epochs. The trainer replays
// the shuffle stream for the skipped epochs and the checkpoint carries
// optimizer state (Adam moments + step clock) and early-stopping
// state, so the continued trajectory is the same trajectory.
TEST(DeterminismTest, ResumeMatchesStraightThroughTraining) {
  datasets::GridDataset ds = datasets::MakeTemperature(
      /*timesteps=*/200, /*height=*/8, /*width=*/8, /*seed=*/7);
  ds.MinMaxNormalize();
  ds.SetPeriodicalRepresentation(3, 2, 1);
  data::SplitIndices split = data::ChronologicalSplit(ds.Size());
  data::SubsetDataset train(&ds, split.train);
  data::SubsetDataset val(&ds, split.val);
  data::SubsetDataset test(&ds, split.test);

  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 8;
  mc.seed = 42;

  models::TrainConfig base;
  base.max_epochs = 4;
  base.patience = 100;  // run all epochs; early stopping stays armed
  base.batch_size = 8;
  base.lr = 1e-2f;
  base.seed = 9;

  // Straight-through run.
  models::PeriodicalCnn straight(mc);
  const models::RegressionResult want =
      models::TrainGridModel(straight, train, val, test, base);

  // Interrupted run: 2 epochs, checkpoint written after epoch 2.
  const std::string path = testing::TempDir() + "/resume_determinism.ckpt";
  models::TrainConfig first = base;
  first.max_epochs = 2;
  first.checkpoint_every = 2;
  first.checkpoint_path = path;
  models::PeriodicalCnn interrupted(mc);
  models::TrainGridModel(interrupted, train, val, test, first);

  // Resume into a DIFFERENTLY-initialized model: everything it knows
  // must come from the checkpoint.
  models::GridModelConfig mc2 = mc;
  mc2.seed = 77;
  models::PeriodicalCnn resumed(mc2);
  models::TrainConfig second = base;
  second.resume_from = path;
  const models::RegressionResult got =
      models::TrainGridModel(resumed, train, val, test, second);

  // Metrics bitwise equal...
  EXPECT_EQ(Bits(ts::Tensor::Scalar(want.mae)),
            Bits(ts::Tensor::Scalar(got.mae)));
  EXPECT_EQ(Bits(ts::Tensor::Scalar(want.rmse)),
            Bits(ts::Tensor::Scalar(got.rmse)));
  EXPECT_EQ(want.epochs_run, got.epochs_run);

  // ...and every parameter bitwise equal.
  const auto a = straight.NamedParameters();
  const auto b = resumed.NamedParameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(Bits(a[i].second.value()), Bits(b[i].second.value()))
        << "parameter " << a[i].first
        << " differs between straight and resumed training";
  }
  std::remove(path.c_str());
}

TEST(DeterminismTest, Fcn) { RunSegDeterminism<models::Fcn>("Fcn"); }
TEST(DeterminismTest, UNet) { RunSegDeterminism<models::UNet>("UNet"); }
TEST(DeterminismTest, UNetPlusPlus) {
  RunSegDeterminism<models::UNetPlusPlus>("UNetPlusPlus");
}

// --- Low-precision eval (DESIGN.md §10) ------------------------------------
//
// The int8 eval path is bitwise deterministic across serial and
// parallel devices, exactly like f32: the activation scale comes from
// the whole batch, and i32 accumulation is exact.

namespace nn = ::geotorch::nn;

// Runs an eval-mode forward of a freshly built model at `precision` on
// `device` and returns the output bit patterns.
template <typename MakeModel, typename ForwardFn>
std::vector<uint32_t> EvalBits(ts::Device device, nn::Precision precision,
                               const MakeModel& make_model,
                               const ForwardFn& forward) {
  ts::DeviceGuard guard(device);
  ag::NoGradGuard no_grad;
  auto model = make_model();
  model->SetTraining(false);
  model->SetPrecision(precision);
  return Bits(forward(*model));
}

template <typename MakeModel, typename ForwardFn>
void ExpectLowPrecisionBehaved(const std::string& label,
                               const MakeModel& make_model,
                               const ForwardFn& forward) {
  const std::vector<uint32_t> serial =
      EvalBits(ts::Device::kSerial, nn::Precision::kInt8, make_model, forward);
  const std::vector<uint32_t> parallel = EvalBits(
      ts::Device::kParallel, nn::Precision::kInt8, make_model, forward);
  EXPECT_EQ(serial, parallel)
      << label << ": int8 eval differs between serial and parallel";
}

void RunGridLowPrecision(GridKind kind, const std::string& label) {
  datasets::GridDataset ds =
      datasets::MakeTemperature(/*timesteps=*/200, /*height=*/16,
                                /*width=*/32, /*seed=*/7);
  ds.MinMaxNormalize();
  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 16;
  mc.seed = 42;
  if (kind == GridKind::kConvLstm) {
    ds.SetSequentialRepresentation(/*history=*/4, /*prediction=*/1);
  } else {
    ds.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                   mc.len_trend);
  }
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);
  auto make_model = [&]() -> std::unique_ptr<models::GridModel> {
    switch (kind) {
      case GridKind::kPeriodicalCnn:
        return std::make_unique<models::PeriodicalCnn>(mc);
      case GridKind::kConvLstm:
        return std::make_unique<models::ConvLstm>(mc, 1);
      case GridKind::kStResNet:
        return std::make_unique<models::StResNet>(mc);
      case GridKind::kDeepStnPlus:
        return std::make_unique<models::DeepStnPlus>(mc);
    }
    return nullptr;
  };
  auto forward = [&batch](models::GridModel& model) {
    return model.Forward(batch).value();
  };
  ExpectLowPrecisionBehaved(label, make_model, forward);
}

TEST(LowPrecisionEvalTest, PeriodicalCnn) {
  RunGridLowPrecision(GridKind::kPeriodicalCnn, "PeriodicalCnn");
}
TEST(LowPrecisionEvalTest, ConvLstm) {
  RunGridLowPrecision(GridKind::kConvLstm, "ConvLstm");
}
TEST(LowPrecisionEvalTest, StResNet) {
  RunGridLowPrecision(GridKind::kStResNet, "StResNet");
}
TEST(LowPrecisionEvalTest, DeepStnPlus) {
  RunGridLowPrecision(GridKind::kDeepStnPlus, "DeepStnPlus");
}

enum class RasterKind { kSatCnn, kDeepSat, kDeepSatV2 };

void RunRasterLowPrecision(RasterKind kind, const std::string& label) {
  datasets::RasterDatasetOptions options;
  options.include_additional_features = true;  // DeepSat needs features
  datasets::RasterClassificationDataset ds =
      datasets::MakeEuroSat(/*n=*/16, options, /*seed=*/3);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);
  ASSERT_FALSE(batch.extras.empty());

  models::RasterModelConfig rc;
  rc.in_channels = 13;
  rc.in_height = 64;
  rc.in_width = 64;
  rc.num_classes = 10;
  rc.num_filtered_features = ds.num_additional_features();
  rc.base_filters = 16;
  rc.seed = 42;

  auto make_model = [&]() -> std::unique_ptr<models::RasterClassifier> {
    switch (kind) {
      case RasterKind::kSatCnn:
        return std::make_unique<models::SatCnn>(rc);
      case RasterKind::kDeepSat:
        return std::make_unique<models::DeepSat>(rc);
      case RasterKind::kDeepSatV2:
        return std::make_unique<models::DeepSatV2>(rc);
    }
    return nullptr;
  };
  auto forward = [&batch](models::RasterClassifier& model) {
    return model
        .Forward(ag::Variable(batch.x), ag::Variable(batch.extras[0]))
        .value();
  };
  ExpectLowPrecisionBehaved(label, make_model, forward);
}

TEST(LowPrecisionEvalTest, SatCnn) {
  RunRasterLowPrecision(RasterKind::kSatCnn, "SatCnn");
}
TEST(LowPrecisionEvalTest, DeepSat) {
  RunRasterLowPrecision(RasterKind::kDeepSat, "DeepSat");
}
TEST(LowPrecisionEvalTest, DeepSatV2) {
  RunRasterLowPrecision(RasterKind::kDeepSatV2, "DeepSatV2");
}

template <typename Model>
void RunSegLowPrecision(const std::string& label) {
  datasets::RasterSegmentationDataset ds =
      datasets::MakeCloud38(/*n=*/8, /*size=*/32, {}, /*seed=*/5);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/2);
  models::SegModelConfig sc;
  sc.in_channels = 4;
  sc.num_classes = 2;
  sc.base_filters = 8;
  sc.seed = 42;
  auto make_model = [&] { return std::make_unique<Model>(sc); };
  auto forward = [&batch](Model& model) {
    return model.Forward(ag::Variable(batch.x)).value();
  };
  ExpectLowPrecisionBehaved(label, make_model, forward);
}

TEST(LowPrecisionEvalTest, Fcn) { RunSegLowPrecision<models::Fcn>("Fcn"); }
TEST(LowPrecisionEvalTest, UNet) { RunSegLowPrecision<models::UNet>("UNet"); }
TEST(LowPrecisionEvalTest, UNetPlusPlus) {
  RunSegLowPrecision<models::UNetPlusPlus>("UNetPlusPlus");
}

// --- Fused eval path (DESIGN.md §13) ---------------------------------------
//
// Eval-mode forwards with gradients disabled route through the fused
// kernels: GEMM epilogues, the im2col-free direct conv, and the 1×1
// bypass. None of the shipped models place a BatchNorm between conv and
// activation, so no folding reassociation happens and the fused f32
// output must be BITWISE identical to the unfused path on both
// devices. The unfused reference is the same eval-mode forward with
// gradients enabled: recording tape keeps it on the autograd ops that
// training runs.

template <typename MakeModel, typename ForwardFn>
void ExpectFusionTransparentEval(const std::string& label,
                                 const MakeModel& make_model,
                                 const ForwardFn& forward) {
  std::vector<uint32_t> unfused;
  {
    ts::DeviceGuard guard(ts::Device::kSerial);
    ASSERT_TRUE(ag::GradEnabled());
    auto model = make_model();
    model->SetTraining(false);
    unfused = Bits(forward(*model));
  }
  for (const ts::Device dev : {ts::Device::kSerial, ts::Device::kParallel}) {
    EXPECT_EQ(unfused, EvalBits(dev, nn::Precision::kF32, make_model, forward))
        << label << ": fused eval differs from unfused on device "
        << static_cast<int>(dev);
  }
}
TEST(FusedEvalTest, SatCnnFusedMatchesUnfusedBitwise) {
  datasets::RasterClassificationDataset ds =
      datasets::MakeEuroSat(/*n=*/16, {}, /*seed=*/3);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);
  models::RasterModelConfig rc;
  rc.in_channels = 13;
  rc.in_height = 64;
  rc.in_width = 64;
  rc.num_classes = 10;
  rc.base_filters = 16;
  rc.seed = 42;
  auto make_model = [&] { return std::make_unique<models::SatCnn>(rc); };
  auto forward = [&batch](models::SatCnn& model) {
    return model.Forward(ag::Variable(batch.x), {}).value();
  };
  ExpectFusionTransparentEval("SatCnn", make_model, forward);
}

TEST(FusedEvalTest, UNetFusedMatchesUnfusedBitwise) {
  datasets::RasterSegmentationDataset ds =
      datasets::MakeCloud38(/*n=*/8, /*size=*/32, {}, /*seed=*/5);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/2);
  models::SegModelConfig sc;
  sc.in_channels = 4;
  sc.num_classes = 2;
  sc.base_filters = 8;
  sc.seed = 42;
  auto make_model = [&] { return std::make_unique<models::UNet>(sc); };
  auto forward = [&batch](models::UNet& model) {
    return model.Forward(ag::Variable(batch.x)).value();
  };
  ExpectFusionTransparentEval("UNet", make_model, forward);
}

TEST(FusedEvalTest, PeriodicalCnnFusedMatchesUnfusedBitwise) {
  datasets::GridDataset ds =
      datasets::MakeTemperature(/*timesteps=*/200, /*height=*/16,
                                /*width=*/32, /*seed=*/7);
  ds.MinMaxNormalize();
  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 16;
  mc.seed = 42;
  ds.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                 mc.len_trend);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/4);
  auto make_model = [&] { return std::make_unique<models::PeriodicalCnn>(mc); };
  auto forward = [&batch](models::PeriodicalCnn& model) {
    return model.Forward(batch).value();
  };
  ExpectFusionTransparentEval("PeriodicalCnn", make_model, forward);
}

}  // namespace
