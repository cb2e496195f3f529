// Scalable raster preprocessing (the paper's Listing 9 + Section
// III-B2): load GeoTIFF-format images, append normalized-difference
// bands offline on the worker pool, extract GLCM texture features, and
// write the transformed rasters back to disk. Finishes with the
// DFtoTorch converter mapping a preprocessed DataFrame into tensor
// batches (Fig. 7).
//
// Run:  ./build/examples/raster_preprocessing

#include <cstdio>

#include "df/dataframe.h"
#include "prep/df_to_torch.h"
#include "prep/raster_processing.h"
#include "raster/glcm.h"
#include "raster/io.h"
#include "raster/ops.h"
#include "synth/satimage.h"

namespace prep = geotorch::prep;
namespace raster = geotorch::raster;
namespace synth = geotorch::synth;
namespace df = geotorch::df;
namespace ts = geotorch::tensor;

int main() {
  std::printf("== Raster preprocessing pipeline ==\n");

  // 0. Materialize a small scene collection on disk as GTIF1 files
  //    (standing in for a directory of downloaded GeoTIFFs).
  synth::SceneConfig scene;
  scene.size = 32;
  scene.bands = 6;
  scene.num_classes = 4;
  std::vector<raster::RasterImage> scenes;
  for (int i = 0; i < 12; ++i) {
    scenes.push_back(synth::GenerateScene(scene, i % 4, 1000 + i));
  }
  auto written =
      prep::RasterProcessing::WriteGeotiffImages(scenes, ".", "scene_");
  if (!written.ok()) {
    std::printf("write failed: %s\n", written.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu GTIF1 rasters to the working directory\n",
              written->size());

  // 1. load_geotiff_image (Listing 9 line 5).
  auto images = prep::RasterProcessing::LoadGeotiffImages(*written);
  if (!images.ok()) {
    std::printf("load failed: %s\n", images.status().ToString().c_str());
    return 1;
  }

  // 2. append_normalized_difference_index, executed in parallel across
  //    the collection (Listing 9 line 6).
  auto transformed =
      prep::RasterProcessing::AppendNormalizedDifferenceIndex(*images, 0, 1);
  std::printf("appended NDI band: %lld -> %lld bands\n",
              static_cast<long long>((*images)[0].bands()),
              static_cast<long long>(transformed[0].bands()));

  // 3. GLCM texture features of band 0 (the DeepSAT-V2 ingredients).
  raster::GlcmFeatures glcm =
      raster::ComputeGlcmFeatures(transformed[0], 0);
  std::printf("GLCM of image 0: contrast=%.3f dissimilarity=%.3f "
              "homogeneity=%.3f energy=%.3f correlation=%.3f\n",
              glcm.contrast, glcm.dissimilarity, glcm.homogeneity,
              glcm.energy, glcm.correlation);

  // 4. write_geotiff_image (Listing 9 line 9).
  auto out_paths = prep::RasterProcessing::WriteGeotiffImages(
      transformed, ".", "scene_ndi_");
  if (!out_paths.ok()) {
    std::printf("write failed: %s\n",
                out_paths.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu transformed rasters\n", out_paths->size());

  // 5. DFtoTorch: a preprocessed per-image feature DataFrame becomes
  //    tensor batches without a master collect (Fig. 7).
  std::vector<double> mean_ndi;
  std::vector<double> contrast;
  std::vector<int64_t> label;
  for (size_t i = 0; i < transformed.size(); ++i) {
    mean_ndi.push_back(
        raster::BandMean(transformed[i], transformed[i].bands() - 1));
    contrast.push_back(
        raster::ComputeGlcmFeatures(transformed[i], 0).contrast);
    label.push_back(static_cast<int64_t>(i % 4));
  }
  df::DataFrame features =
      df::DataFrame::FromColumns(
          {{"mean_ndi", df::Column::FromDoubles(std::move(mean_ndi))},
           {"glcm_contrast", df::Column::FromDoubles(std::move(contrast))},
           {"label", df::Column::FromInt64s(std::move(label))}})
          .Repartition(3);
  prep::DfToTorch::Options options;
  options.feature_columns = {"mean_ndi", "glcm_contrast"};
  options.label_column = "label";
  options.batch_size = 5;
  prep::DfToTorch converter(features, options);
  ts::Tensor x;
  ts::Tensor y;
  int batch_no = 0;
  while (converter.NextBatch(&x, &y)) {
    std::printf("batch %d: x=%s labels=%lld\n", batch_no++,
                ts::ShapeToString(x.shape()).c_str(),
                static_cast<long long>(y.numel()));
  }
  std::printf("done.\n");
  return 0;
}
