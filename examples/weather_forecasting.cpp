// Weather forecasting with the sequential representation (the paper's
// Listing 3 + Section V-D): a WeatherBench-style temperature dataset is
// iterated as (history, prediction) frame sequences and used to train
// the ConvLSTM nowcasting model, compared against the persistence
// baseline (tomorrow == today).
//
// Run:  ./build/examples/weather_forecasting [--smoke]
// (--smoke: a fifth of the timesteps and one epoch, for sanitizer builds)

#include <cstdio>
#include <cstring>

#include "data/dataset.h"
#include "data/metrics.h"
#include "datasets/benchmarks.h"
#include "models/grid_models.h"
#include "models/trainer.h"
#include "tensor/ops.h"

namespace ds = geotorch::datasets;
namespace models = geotorch::models;
namespace data = geotorch::data;
namespace ts = geotorch::tensor;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("== ConvLSTM temperature forecasting ==\n");

  // Scaled-down WeatherBench temperature: 16x32 grid, ~25 days hourly.
  ds::GridDataset dataset = ds::MakeTemperature(smoke ? 120 : 600,
                                                /*height=*/16,
                                                /*width=*/32, /*seed=*/11);
  auto [mn, mx] = dataset.MinMaxNormalize();
  std::printf("temperature range: %.1f .. %.1f C (normalized to [0,1])\n",
              mn, mx);

  dataset.SetSequentialRepresentation(/*history_length=*/6,
                                      /*prediction_length=*/1);
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);

  // Persistence baseline: predict frame t to be frame t-1.
  {
    double abs_sum = 0.0;
    int64_t count = 0;
    for (int64_t i = 0; i < test.Size(); ++i) {
      data::Sample s = test.Get(i);
      // Last history frame vs target frame.
      ts::Tensor last = ts::Slice(s.x, 0, 5, 6);
      ts::Tensor diff = ts::Sub(last, s.y);
      for (int64_t k = 0; k < diff.numel(); ++k) {
        abs_sum += std::fabs(diff.flat(k));
      }
      count += diff.numel();
    }
    std::printf("persistence baseline MAE: %.4f (normalized)\n",
                abs_sum / count);
  }

  models::GridModelConfig mc;
  mc.channels = 1;
  mc.height = 16;
  mc.width = 32;
  mc.hidden = 12;
  models::ConvLstm model(mc, /*prediction_length=*/1);
  std::printf("ConvLSTM parameters: %lld\n",
              static_cast<long long>(model.NumParameters()));

  models::TrainConfig tc;
  tc.max_epochs = smoke ? 1 : 3;
  tc.batch_size = 8;
  tc.lr = 3e-3f;
  tc.verbose = true;
  models::RegressionResult result =
      models::TrainGridModel(model, train, val, test, tc);
  std::printf("ConvLSTM test MAE=%.4f RMSE=%.4f (normalized units)\n",
              result.mae, result.rmse);
  std::printf("denormalized MAE: %.2f C\n", result.mae * (mx - mn));
  return 0;
}
