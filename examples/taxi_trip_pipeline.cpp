// End-to-end spatiotemporal pipeline — the paper's flagship workflow
// (Listing 8 + Section V-B/V-C): raw taxi trip records are converted
// into a grid-based spatiotemporal tensor with the scalable
// preprocessing module, persisted to disk, reloaded as a GeoTorchAI
// grid dataset with the periodical representation, and used to train
// the DeepSTN+ traffic predictor.
//
// Run:  ./build/examples/taxi_trip_pipeline

#include <cstdio>

#include "core/stopwatch.h"
#include "data/dataset.h"
#include "datasets/grid_dataset.h"
#include "df/dataframe.h"
#include "models/grid_models.h"
#include "models/trainer.h"
#include "prep/st_manager.h"
#include "synth/taxi.h"
#include "tensor/serialize.h"

namespace prep = geotorch::prep;
namespace synth = geotorch::synth;
namespace df = geotorch::df;
namespace ds = geotorch::datasets;
namespace models = geotorch::models;
namespace data = geotorch::data;
namespace ts = geotorch::tensor;

int main() {
  std::printf("== Raw trips -> ST tensor -> DeepSTN+ ==\n");
  geotorch::Stopwatch timer;

  // 1. Raw data: one month of synthetic NYC-like trip events, loaded
  //    as a partitioned DataFrame (4 "executors").
  synth::TaxiTripConfig trip_config;
  trip_config.num_records = 150000;
  trip_config.duration_sec = 30LL * 24 * 3600;
  trip_config.seed = 42;
  df::DataFrame raw = synth::TripsToDataFrame(
      synth::GenerateTaxiTrips(trip_config), /*num_partitions=*/4);
  std::printf("raw trips: %lld rows in %d partitions (%.2f s)\n",
              static_cast<long long>(raw.NumRows()), raw.num_partitions(),
              timer.ElapsedSeconds());

  // 2. Preprocessing (Listing 8): lat/lon -> geometry column, then the
  //    12x16 grid / 30-minute aggregation, with pickup and dropoff
  //    channels.
  timer.Restart();
  df::DataFrame spatial =
      prep::STManager::AddSpatialPoints(raw, "lat", "lon", "point");
  const int pickup_idx = spatial.schema().FieldIndex("is_pickup");
  df::DataFrame channels =
      spatial
          .WithColumn("pu", df::DataType::kDouble,
                      [pickup_idx](const df::RowView& row) -> df::Value {
                        return static_cast<double>(row.GetInt64(pickup_idx));
                      })
          .WithColumn("do", df::DataType::kDouble,
                      [pickup_idx](const df::RowView& row) -> df::Value {
                        return 1.0 -
                               static_cast<double>(row.GetInt64(pickup_idx));
                      });
  prep::StGridSpec spec;
  spec.geometry_column = "point";
  spec.partitions_x = 12;
  spec.partitions_y = 16;
  spec.time_column = "time";
  spec.step_duration_sec = 1800;
  spec.aggs = {{df::AggKind::kSum, "pu", "pickups"},
               {df::AggKind::kSum, "do", "dropoffs"}};
  prep::StGridResult grid = prep::STManager::GetStGridDataFrame(channels, spec);
  ts::Tensor st =
      prep::STManager::GetStGridTensor(grid, {"pickups", "dropoffs"});
  std::printf("ST tensor: (%lld, %lld, %lld, %lld) in %.2f s\n",
              static_cast<long long>(st.size(0)),
              static_cast<long long>(st.size(1)),
              static_cast<long long>(st.size(2)),
              static_cast<long long>(st.size(3)), timer.ElapsedSeconds());

  // 3. Persist and reload (the "write the tensor to disk for further
  //    usage" step of Section III-B1).
  const std::string path = "yellowtrip_nyc.gten";
  if (auto s = ts::SaveTensor(path, st); !s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded = ts::LoadTensor(path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("tensor round-tripped through %s\n", path.c_str());

  // 4. Grid dataset with the periodical representation (Listing 4).
  ds::GridDataset dataset(std::move(*loaded), /*steps_per_day=*/48);
  dataset.MinMaxNormalize();
  dataset.SetPeriodicalRepresentation(/*len_closeness=*/3, /*len_period=*/2,
                                      /*len_trend=*/1);
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);
  std::printf("periodical dataset: %lld samples (train %zu / val %zu / "
              "test %zu)\n",
              static_cast<long long>(dataset.Size()), split.train.size(),
              split.val.size(), split.test.size());

  // 5. DeepSTN+ (Listing 5 analogue).
  models::GridModelConfig mc;
  mc.channels = 2;
  mc.height = 16;
  mc.width = 12;
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 16;
  models::DeepStnPlus model(mc);

  models::TrainConfig tc;
  tc.max_epochs = 5;
  tc.batch_size = 32;
  tc.verbose = true;
  models::RegressionResult result =
      models::TrainGridModel(model, train, val, test, tc);
  std::printf("DeepSTN+ on YellowTrip-NYC: MAE=%.4f RMSE=%.4f "
              "(normalized units, %d epochs)\n",
              result.mae, result.rmse, result.epochs_run);
  return 0;
}
