// Quickstart: the GeoTorchAI workflow from the paper's Listings 1 and 6
// in C++ — load a ready-to-use raster benchmark dataset (EuroSAT-like),
// keep the handcrafted spectral/GLCM features, train DeepSAT-V2, and
// report test accuracy.
//
// Run:  ./build/examples/quickstart [--smoke]
// (--smoke: a fifth of the images and one epoch, for sanitizer builds)

#include <cstdio>
#include <cstring>

#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "models/raster_models.h"
#include "models/trainer.h"

namespace ds = geotorch::datasets;
namespace models = geotorch::models;
namespace data = geotorch::data;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("== GeoTorch-CPP quickstart ==\n");

  // 1. Dataset with automatic feature extraction (Listing 1:
  //    EuroSAT(root=..., include_additional_features=True)).
  ds::RasterDatasetOptions options;
  options.include_additional_features = true;
  ds::RasterClassificationDataset eurosat =
      ds::MakeEuroSat(smoke ? 60 : 300, options, /*seed=*/7);
  std::printf("dataset: %lld images, %lld bands, %lld extra features\n",
              static_cast<long long>(eurosat.Size()),
              static_cast<long long>(eurosat.bands()),
              static_cast<long long>(eurosat.num_additional_features()));

  // 2. Train/val/test split (80/10/10).
  data::SplitIndices split = data::ChronologicalSplit(eurosat.Size());
  data::SubsetDataset train(&eurosat, split.train);
  data::SubsetDataset val(&eurosat, split.val);
  data::SubsetDataset test(&eurosat, split.test);

  // 3. Model (Listing 6: DeepSatV2(in_channels, in_height, in_width,
  //    num_classes, num_filtered_features)).
  models::RasterModelConfig config;
  config.in_channels = 13;
  config.in_height = 64;
  config.in_width = 64;
  config.num_classes = 10;
  config.num_filtered_features = eurosat.num_additional_features();
  config.base_filters = 8;
  models::DeepSatV2 model(config);
  std::printf("model: DeepSAT-V2 with %lld parameters\n",
              static_cast<long long>(model.NumParameters()));

  // 4. Train with Adam + early stopping (the paper's protocol).
  models::TrainConfig tc;
  tc.max_epochs = smoke ? 1 : 6;
  tc.batch_size = 16;
  tc.lr = 1e-3f;
  tc.verbose = true;
  models::ClassificationResult result =
      models::TrainClassifier(model, train, val, test, tc);

  std::printf("test accuracy: %.2f%% (after %d epochs, %.2f s/epoch)\n",
              100.0 * result.accuracy, result.epochs_run,
              result.seconds_per_epoch);
  return 0;
}
