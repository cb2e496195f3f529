#include "models/trainer.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/check.h"
#include "core/stopwatch.h"
#include "data/metrics.h"
#include "io/checkpoint.h"
#include "obs/obs.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace geotorch::models {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;

namespace {

// Labels arrive as (B, 1) from the stacked scalar samples; flatten.
ts::Tensor FlattenLabels(const ts::Tensor& y) {
  return y.Reshape({y.numel()});
}

ag::Variable ClassifierLogits(RasterClassifier& model,
                              const data::Batch& batch) {
  ag::Variable features;
  if (!batch.extras.empty()) features = ag::Variable(batch.extras[0]);
  return model.Forward(ag::Variable(batch.x), features);
}

// Runs one epoch over `loader`, returning the mean batch loss.
// Incremental mode steps per batch; cumulative mode accumulates
// gradients and steps once at epoch end (Section III-A2).
template <typename LossFn>
float RunEpoch(nn::Module& model, optim::Optimizer& opt,
               data::DataLoader& loader, const TrainConfig& config,
               LossFn loss_fn) {
  model.SetTraining(true);
  loader.Reset();
  GEO_OBS_SPAN(epoch_span, "trainer.epoch");
  data::Batch batch;
  double total = 0.0;
  int64_t batches = 0;
  // Pulls the next batch under a "trainer.load" span so the trace tree
  // separates input-pipeline time from compute time.
  auto next_batch = [&loader, &batch] {
    GEO_OBS_SPAN(load_span, "trainer.load");
    return loader.Next(&batch);
  };
  // One update over the gradients of the last `summed` batches; the
  // clip threshold scales with them.
  auto step = [&opt, &config](int64_t summed) {
    GEO_OBS_SPAN(step_span, "trainer.step");
    GEO_OBS_COUNT("trainer.steps", 1);
    if (config.grad_clip > 0.0f) {
      opt.ClipGradNorm(config.grad_clip * static_cast<float>(summed));
    }
    opt.Step();
  };
  if (config.cumulative) opt.ZeroGrad();
  while (next_batch()) {
    if (!config.cumulative) opt.ZeroGrad();
    ag::Variable loss = [&] {
      GEO_OBS_SPAN(fwd_span, "trainer.forward");
      return loss_fn(batch);
    }();
    {
      GEO_OBS_SPAN(bwd_span, "trainer.backward");
      loss.Backward();
    }
    if (!config.cumulative) step(1);
    total += loss.value().flat(0);
    ++batches;
  }
  if (config.cumulative && batches > 0) step(batches);
  return batches > 0 ? static_cast<float>(total / batches) : 0.0f;
}

// Mean loss over a dataset without gradient tracking.
template <typename LossFn>
float Evaluate(nn::Module& model, const data::Dataset& dataset,
               int64_t batch_size, LossFn loss_fn) {
  ag::NoGradGuard guard;
  model.SetTraining(false);
  data::DataLoader loader(&dataset, batch_size, /*shuffle=*/false);
  data::Batch batch;
  double total = 0.0;
  int64_t batches = 0;
  while (loader.Next(&batch)) {
    total += loss_fn(batch).value().flat(0);
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total / batches) : 0.0f;
}

// Restores config.resume_from (when set) into the model/optimizer/
// stopper and returns the number of completed epochs to skip. A bad
// checkpoint aborts: training onward from half-restored state would
// silently produce a different model.
int ResumeIfConfigured(nn::Module& model, optim::Optimizer& opt,
                       optim::EarlyStopping& stopper,
                       const TrainConfig& config) {
  if (config.resume_from.empty()) return 0;
  auto resumed =
      LoadTrainCheckpoint(config.resume_from, model, opt, stopper, config);
  GEO_CHECK(resumed.ok()) << "resume failed: "
                          << resumed.status().ToString();
  return *resumed;
}

// Writes config.checkpoint_path after every checkpoint_every-th epoch.
// Called after the early-stopping update so the saved stopper state is
// exactly what an uninterrupted run would carry into the next epoch.
void MaybeCheckpoint(const nn::Module& model, optim::Optimizer& opt,
                     const optim::EarlyStopping& stopper,
                     const TrainConfig& config, int epochs_completed) {
  if (config.checkpoint_every <= 0 || config.checkpoint_path.empty()) return;
  if (epochs_completed % config.checkpoint_every != 0) return;
  GEO_OBS_SPAN(ckpt_span, "trainer.checkpoint");
  Status s = SaveTrainCheckpoint(config.checkpoint_path, model, opt, stopper,
                                 config, epochs_completed);
  if (!s.ok()) {
    std::fprintf(stderr, "WARNING: checkpoint write failed: %s\n",
                 s.ToString().c_str());
  }
}

}  // namespace

Status SaveTrainCheckpoint(const std::string& path, const nn::Module& model,
                           optim::Optimizer& opt,
                           const optim::EarlyStopping& stopper,
                           const TrainConfig& config, int epochs_completed) {
  io::Checkpoint ckpt;
  for (auto& [name, p] : model.NamedParameters()) {
    ckpt.tensors.emplace_back("model." + name, p.value());
  }
  for (auto& [name, t] : opt.StateTensors()) {
    ckpt.tensors.emplace_back("optim." + name, t);
  }
  ckpt.ints.emplace_back("epoch", epochs_completed);
  ckpt.ints.emplace_back("optim.step_count", opt.StepCount());
  ckpt.ints.emplace_back("stopper.bad_epochs", stopper.bad_epochs());
  ckpt.ints.emplace_back("config.batch_size", config.batch_size);
  ckpt.ints.emplace_back("config.seed", static_cast<int64_t>(config.seed));
  ckpt.ints.emplace_back("config.cumulative", config.cumulative ? 1 : 0);
  ckpt.floats.emplace_back("stopper.best", stopper.best());
  ckpt.floats.emplace_back("config.lr", config.lr);
  ckpt.floats.emplace_back("config.grad_clip", config.grad_clip);
  return io::WriteCheckpoint(path, ckpt);
}

Result<int> LoadTrainCheckpoint(const std::string& path, nn::Module& model,
                                optim::Optimizer& opt,
                                optim::EarlyStopping& stopper,
                                const TrainConfig& config) {
  GEO_ASSIGN_OR_RETURN(io::Checkpoint ckpt, io::ReadCheckpoint(path));

  const int64_t* epoch = ckpt.FindInt("epoch");
  const int64_t* step_count = ckpt.FindInt("optim.step_count");
  const int64_t* bad_epochs = ckpt.FindInt("stopper.bad_epochs");
  const double* best = ckpt.FindFloat("stopper.best");
  if (epoch == nullptr || step_count == nullptr || bad_epochs == nullptr ||
      best == nullptr) {
    return Status::InvalidArgument(
        "not a trainer checkpoint (missing epoch/optimizer/stopper "
        "records): " + path);
  }
  // The fields that shape the batch stream must match, or the resumed
  // run silently diverges from the one that wrote the checkpoint.
  const int64_t* batch_size = ckpt.FindInt("config.batch_size");
  const int64_t* seed = ckpt.FindInt("config.seed");
  const int64_t* cumulative = ckpt.FindInt("config.cumulative");
  if (batch_size != nullptr && *batch_size != config.batch_size) {
    return Status::InvalidArgument("checkpoint batch_size mismatch: " + path);
  }
  if (seed != nullptr &&
      static_cast<uint64_t>(*seed) != config.seed) {
    return Status::InvalidArgument("checkpoint seed mismatch: " + path);
  }
  if (cumulative != nullptr && (*cumulative != 0) != config.cumulative) {
    return Status::InvalidArgument(
        "checkpoint cumulative-mode mismatch: " + path);
  }

  GEO_RETURN_NOT_OK(io::ApplyStateDict(model, ckpt, {/*strict=*/true},
                                       /*prefix=*/"model."));
  for (auto& [name, t] : opt.StateTensors()) {
    const tensor::Tensor* saved = ckpt.FindTensor("optim." + name);
    if (saved == nullptr) {
      return Status::InvalidArgument(
          "checkpoint missing optimizer state '" + name + "': " + path);
    }
    if (!tensor::SameShape(saved->shape(), t.shape())) {
      return Status::InvalidArgument(
          "optimizer state shape mismatch for '" + name + "': " + path);
    }
    std::memcpy(t.data(), saved->data(),
                static_cast<size_t>(t.numel()) * sizeof(float));
  }
  opt.SetStepCount(*step_count);
  stopper.Restore(static_cast<float>(*best), static_cast<int>(*bad_epochs));
  return static_cast<int>(*epoch);
}

RegressionResult TrainGridModel(GridModel& model, const data::Dataset& train,
                                const data::Dataset& val,
                                const data::Dataset& test,
                                const TrainConfig& config) {
  optim::Adam opt(model.Parameters(), config.lr);
  optim::EarlyStopping stopper(config.patience, config.min_delta);
  data::DataLoader train_loader(&train, config.batch_size, /*shuffle=*/true,
                                config.seed);
  auto loss_fn = [&model](const data::Batch& batch) {
    return ag::MseLoss(model.Forward(batch), batch.y);
  };

  const int start_epoch = ResumeIfConfigured(model, opt, stopper, config);
  RegressionResult result;
  // Epochs restored from the checkpoint count toward epochs_run so a
  // resumed run reports the same training length as an uninterrupted
  // one; per-epoch timing covers only the epochs executed here.
  result.epochs_run = start_epoch;
  Stopwatch total_timer;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    if (epoch < start_epoch) {
      train_loader.Reset();  // replay the checkpointed epochs' shuffles
      continue;
    }
    const float train_loss =
        RunEpoch(model, opt, train_loader, config, loss_fn);
    const float val_loss =
        Evaluate(model, val, config.batch_size, loss_fn);
    ++result.epochs_run;
    if (config.verbose) {
      std::printf("  epoch %2d train_mse=%.5f val_mse=%.5f\n", epoch,
                  train_loss, val_loss);
    }
    const bool stop = stopper.Update(val_loss);
    MaybeCheckpoint(model, opt, stopper, config, epoch + 1);
    if (stop) break;
  }
  result.seconds_per_epoch =
      total_timer.ElapsedSeconds() /
      std::max(1, result.epochs_run - start_epoch);

  // Test metrics.
  ag::NoGradGuard guard;
  model.SetTraining(false);
  data::DataLoader test_loader(&test, config.batch_size, /*shuffle=*/false);
  data::Batch batch;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  int64_t count = 0;
  while (test_loader.Next(&batch)) {
    ts::Tensor pred = model.Forward(batch).value();
    ts::Tensor diff = ts::Sub(pred, batch.y);
    const float* d = diff.data();
    for (int64_t i = 0; i < diff.numel(); ++i) {
      abs_sum += std::fabs(d[i]);
      sq_sum += static_cast<double>(d[i]) * d[i];
    }
    count += diff.numel();
  }
  result.mae = static_cast<float>(abs_sum / count);
  result.rmse = static_cast<float>(std::sqrt(sq_sum / count));
  return result;
}

ClassificationResult TrainClassifier(RasterClassifier& model,
                                     const data::Dataset& train,
                                     const data::Dataset& val,
                                     const data::Dataset& test,
                                     const TrainConfig& config) {
  optim::Adam opt(model.Parameters(), config.lr);
  optim::EarlyStopping stopper(config.patience, config.min_delta);
  data::DataLoader train_loader(&train, config.batch_size, /*shuffle=*/true,
                                config.seed);
  auto loss_fn = [&model](const data::Batch& batch) {
    return ag::CrossEntropyLoss(ClassifierLogits(model, batch),
                                FlattenLabels(batch.y));
  };

  ClassificationResult result;
  const int start_epoch = ResumeIfConfigured(model, opt, stopper, config);
  result.epochs_run = start_epoch;
  Stopwatch total_timer;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    if (epoch < start_epoch) {
      train_loader.Reset();  // replay the checkpointed epochs' shuffles
      continue;
    }
    const float train_loss =
        RunEpoch(model, opt, train_loader, config, loss_fn);
    const float val_loss =
        Evaluate(model, val, config.batch_size, loss_fn);
    ++result.epochs_run;
    if (config.verbose) {
      std::printf("  epoch %2d train_ce=%.4f val_ce=%.4f\n", epoch,
                  train_loss, val_loss);
    }
    const bool stop = stopper.Update(val_loss);
    MaybeCheckpoint(model, opt, stopper, config, epoch + 1);
    if (stop) break;
  }
  result.seconds_per_epoch =
      total_timer.ElapsedSeconds() /
      std::max(1, result.epochs_run - start_epoch);

  ag::NoGradGuard guard;
  model.SetTraining(false);
  data::DataLoader test_loader(&test, config.batch_size, /*shuffle=*/false);
  data::Batch batch;
  int64_t correct = 0;
  int64_t total = 0;
  while (test_loader.Next(&batch)) {
    ts::Tensor logits = ClassifierLogits(model, batch).value();
    ts::Tensor pred = ts::Argmax(logits, 1);
    ts::Tensor labels = FlattenLabels(batch.y);
    for (int64_t i = 0; i < pred.numel(); ++i) {
      if (static_cast<int64_t>(pred.flat(i)) ==
          static_cast<int64_t>(labels.flat(i))) {
        ++correct;
      }
    }
    total += pred.numel();
  }
  result.accuracy = static_cast<float>(correct) / static_cast<float>(total);
  return result;
}

ClassificationResult TrainSegmenter(nn::UnaryModule& model,
                                    const data::Dataset& train,
                                    const data::Dataset& val,
                                    const data::Dataset& test,
                                    const TrainConfig& config) {
  optim::Adam opt(model.Parameters(), config.lr);
  optim::EarlyStopping stopper(config.patience, config.min_delta);
  data::DataLoader train_loader(&train, config.batch_size, /*shuffle=*/true,
                                config.seed);
  auto loss_fn = [&model](const data::Batch& batch) {
    return ag::CrossEntropyLoss(model.Forward(ag::Variable(batch.x)),
                                batch.y);
  };

  ClassificationResult result;
  const int start_epoch = ResumeIfConfigured(model, opt, stopper, config);
  result.epochs_run = start_epoch;
  Stopwatch total_timer;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    if (epoch < start_epoch) {
      train_loader.Reset();  // replay the checkpointed epochs' shuffles
      continue;
    }
    const float train_loss =
        RunEpoch(model, opt, train_loader, config, loss_fn);
    const float val_loss =
        Evaluate(model, val, config.batch_size, loss_fn);
    ++result.epochs_run;
    if (config.verbose) {
      std::printf("  epoch %2d train_ce=%.4f val_ce=%.4f\n", epoch,
                  train_loss, val_loss);
    }
    const bool stop = stopper.Update(val_loss);
    MaybeCheckpoint(model, opt, stopper, config, epoch + 1);
    if (stop) break;
  }
  result.seconds_per_epoch =
      total_timer.ElapsedSeconds() /
      std::max(1, result.epochs_run - start_epoch);

  ag::NoGradGuard guard;
  model.SetTraining(false);
  data::DataLoader test_loader(&test, config.batch_size, /*shuffle=*/false);
  data::Batch batch;
  double acc_sum = 0.0;
  int64_t batches = 0;
  while (test_loader.Next(&batch)) {
    ts::Tensor logits = model.Forward(ag::Variable(batch.x)).value();
    acc_sum += data::PixelAccuracy(logits, batch.y);
    ++batches;
  }
  result.accuracy = static_cast<float>(acc_sum / std::max<int64_t>(1, batches));
  return result;
}

namespace {

template <typename LossFn>
double TimeOneEpoch(nn::Module& model, const data::Dataset& train,
                    const TrainConfig& config, LossFn loss_fn) {
  optim::Adam opt(model.Parameters(), config.lr);
  data::DataLoader loader(&train, config.batch_size, /*shuffle=*/true,
                          config.seed);
  Stopwatch timer;
  RunEpoch(model, opt, loader, config, loss_fn);
  return timer.ElapsedSeconds();
}

}  // namespace

double TimeOneEpochGrid(GridModel& model, const data::Dataset& train,
                        const TrainConfig& config) {
  return TimeOneEpoch(model, train, config, [&model](const data::Batch& b) {
    return ag::MseLoss(model.Forward(b), b.y);
  });
}

double TimeOneEpochClassifier(RasterClassifier& model,
                              const data::Dataset& train,
                              const TrainConfig& config) {
  return TimeOneEpoch(model, train, config, [&model](const data::Batch& b) {
    return ag::CrossEntropyLoss(ClassifierLogits(model, b),
                                FlattenLabels(b.y));
  });
}

double TimeOneEpochSegmenter(nn::UnaryModule& model,
                             const data::Dataset& train,
                             const TrainConfig& config) {
  return TimeOneEpoch(model, train, config, [&model](const data::Batch& b) {
    return ag::CrossEntropyLoss(model.Forward(ag::Variable(b.x)), b.y);
  });
}

}  // namespace geotorch::models
