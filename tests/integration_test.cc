// End-to-end integration tests crossing module boundaries: the full
// paper workflow (raw events -> preprocessing -> tensor -> dataset ->
// model training -> metrics), plus trainer behaviours.

#include <gtest/gtest.h>

#include "baseline/geopandas_like.h"
#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "models/grid_models.h"
#include "models/trainer.h"
#include "prep/st_manager.h"
#include "synth/taxi.h"
#include "synth/weather.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tests/temp_path.h"
#include "transforms/transforms.h"

namespace geotorch {
namespace {

namespace ts = ::geotorch::tensor;
namespace ds = ::geotorch::datasets;

TEST(EndToEndTest, TripsToTrainedModel) {
  // 1. Raw events.
  synth::TaxiTripConfig trip_config;
  trip_config.num_records = 20000;
  trip_config.duration_sec = 14 * 86400;
  trip_config.seed = 3;
  auto trips = synth::GenerateTaxiTrips(trip_config);

  // 2. Preprocessing module -> (T, 1, H, W) tensor.
  df::DataFrame raw = synth::TripsToDataFrame(trips, 3);
  df::DataFrame with_points =
      prep::STManager::AddSpatialPoints(raw, "lat", "lon", "point");
  prep::StGridSpec spec;
  spec.partitions_x = 8;
  spec.partitions_y = 8;
  spec.step_duration_sec = 3600;
  prep::StGridResult result =
      prep::STManager::GetStGridDataFrame(with_points, spec);
  ts::Tensor st = prep::STManager::GetStGridTensor(result, {"count"});
  ASSERT_EQ(st.size(0), 14 * 24);
  ASSERT_EQ(static_cast<int64_t>(ts::SumAll(st)), 20000);

  // 3. Persist and reload.
  const ScopedTempPath path("e2e.gten");
  ASSERT_TRUE(ts::SaveTensor(path, st).ok());
  auto loaded = ts::LoadTensor(path);
  ASSERT_TRUE(loaded.ok());

  // 4. Dataset with the periodical representation; train DeepSTN+.
  ds::GridDataset dataset(std::move(*loaded), /*steps_per_day=*/24);
  dataset.MinMaxNormalize();
  dataset.SetPeriodicalRepresentation(3, 2, 1);
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);

  models::GridModelConfig mc;
  mc.channels = 1;
  mc.height = 8;
  mc.width = 8;
  mc.hidden = 8;
  models::DeepStnPlus model(mc);
  models::TrainConfig tc;
  tc.max_epochs = 8;
  tc.batch_size = 32;
  tc.lr = 5e-3f;
  models::RegressionResult run =
      models::TrainGridModel(model, train, val, test, tc);
  EXPECT_GT(run.epochs_run, 0);
  EXPECT_LT(run.mae, 0.3f);  // data in [0,1]; anything sane is << 0.3

  // 5. Trained model beats the all-zeros predictor on this sparse data.
  double zero_abs = 0.0;
  int64_t count = 0;
  for (int64_t i = 0; i < test.Size(); ++i) {
    data::Sample s = test.Get(i);
    for (int64_t k = 0; k < s.y.numel(); ++k) {
      zero_abs += std::fabs(s.y.flat(k));
    }
    count += s.y.numel();
  }
  EXPECT_LT(run.mae, zero_abs / count);
}

TEST(EndToEndTest, PreprocessedEqualsBaselinePipeline) {
  synth::TaxiTripConfig config;
  config.num_records = 4000;
  config.duration_sec = 3 * 86400;
  config.seed = 9;
  auto trips = synth::GenerateTaxiTrips(config);

  ds::YellowTripConfig yt;
  yt.num_records = config.num_records;
  yt.duration_sec = config.duration_sec;
  yt.partitions_x = 12;
  yt.partitions_y = 16;
  yt.seed = config.seed;
  ds::GridDataset dataset = ds::MakeYellowTripNyc(yt);

  baseline::BaselineOptions options;
  options.partitions_x = 12;
  options.partitions_y = 16;
  options.step_duration_sec = 1800;
  baseline::BaselineOutcome outcome =
      baseline::GeoPandasLikePrepare(trips, options);
  ASSERT_FALSE(outcome.out_of_memory);
  EXPECT_TRUE(
      ts::AllClose(dataset.st_data(), outcome.st_tensor, 0.0f, 0.0f));
}

TEST(TrainerTest, CumulativeModeAlsoLearns) {
  ds::GridDataset dataset(
      synth::GenerateGridFlow(200, 1, 8, 8, 24, 6), 24);
  dataset.MinMaxNormalize();
  dataset.SetPeriodicalRepresentation(2, 1, 0);
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);

  models::GridModelConfig mc;
  mc.channels = 1;
  mc.height = 8;
  mc.width = 8;
  mc.len_closeness = 2;
  mc.len_period = 1;
  mc.len_trend = 0;
  mc.hidden = 8;

  models::TrainConfig tc;
  tc.max_epochs = 8;
  tc.batch_size = 16;
  tc.lr = 1e-2f;
  tc.cumulative = true;
  models::PeriodicalCnn model(mc);
  models::RegressionResult cumulative =
      models::TrainGridModel(model, train, val, test, tc);
  EXPECT_GT(cumulative.epochs_run, 0);
  // Cumulative training learns too (one update per epoch, so it needs
  // more epochs to match incremental — we only require sanity here).
  EXPECT_LT(cumulative.mae, 0.4f);
}

TEST(TrainerTest, EarlyStoppingLimitsEpochs) {
  // All-zero data: the model reaches (near-)zero loss within a few
  // epochs, after which improvements fall below min_delta and early
  // stopping must fire.
  ts::Tensor zeros = ts::Tensor::Zeros({60, 1, 4, 4});
  ds::GridDataset dataset(zeros, 24);
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);

  models::GridModelConfig mc;
  mc.channels = 1;
  mc.height = 4;
  mc.width = 4;
  mc.len_closeness = 1;
  mc.len_period = 0;
  mc.len_trend = 0;
  mc.hidden = 4;
  models::TrainConfig tc;
  tc.max_epochs = 50;
  tc.patience = 2;
  tc.min_delta = 1e-5f;
  tc.lr = 5e-2f;
  // Periodical representation with only closeness.
  ds::GridDataset* mutable_dataset = const_cast<ds::GridDataset*>(&dataset);
  mutable_dataset->SetPeriodicalRepresentation(1, 0, 0);

  models::PeriodicalCnn model(mc);
  models::RegressionResult run =
      models::TrainGridModel(model, train, val, test, tc);
  EXPECT_LT(run.epochs_run, 25) << "early stopping never triggered";
}

TEST(TransformIntegrationTest, OnTheFlyTransformChangesModelInput) {
  ds::RasterDatasetOptions options;
  options.transform = transforms::Compose(
      {transforms::AppendNormalizedDifferenceIndex(0, 1),
       transforms::MinMaxScale(0.0f, 1.0f)});
  ds::RasterClassificationDataset dataset = ds::MakeSat6(12, options);
  data::Sample s = dataset.Get(0);
  EXPECT_EQ(s.x.size(0), 5);
  EXPECT_GE(ts::MinAll(s.x), 0.0f);
  EXPECT_LE(ts::MaxAll(s.x), 1.0f);
}

TEST(CoarsenIntegrationTest, TrainingOnCoarsenedGridIsCheaper) {
  ts::Tensor fine =
      synth::GenerateGridFlow(100, 1, 16, 16, 24, 4);
  ts::Tensor coarse = prep::STManager::CoarsenGrid(fine, 2);
  EXPECT_EQ(coarse.size(2), 8);
  // Mass is conserved per frame.
  EXPECT_NEAR(ts::SumAll(coarse) / ts::SumAll(fine), 1.0f, 1e-4);
}

}  // namespace
}  // namespace geotorch
