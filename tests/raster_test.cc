#include "raster/raster.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "raster/glcm.h"
#include "raster/io.h"
#include "raster/ops.h"
#include "tensor/ops.h"
#include "tests/temp_path.h"

namespace geotorch::raster {
namespace {

RasterImage SampleImage() {
  RasterImage img(4, 4, 2);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      img.at(0, i, j) = static_cast<float>(i * 4 + j);       // 0..15
      img.at(1, i, j) = static_cast<float>(16 - (i * 4 + j));  // 16..1
    }
  }
  return img;
}

TEST(RasterImageTest, AccessorsAndLayout) {
  RasterImage img = SampleImage();
  EXPECT_EQ(img.height(), 4);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.bands(), 2);
  EXPECT_EQ(img.at(0, 1, 2), 6.0f);
  EXPECT_EQ(img.band_data(1)[0], 16.0f);
}

TEST(RasterImageTest, TensorRoundTrip) {
  RasterImage img = SampleImage();
  tensor::Tensor t = img.ToTensor();
  EXPECT_EQ(t.shape(), (tensor::Shape{2, 4, 4}));
  RasterImage back = RasterImage::FromTensor(t);
  EXPECT_EQ(back.at(0, 3, 3), img.at(0, 3, 3));
  EXPECT_EQ(back.at(1, 0, 0), img.at(1, 0, 0));
}

TEST(RasterIoTest, GtifRoundTripPreservesMetadata) {
  RasterImage img = SampleImage();
  img.set_crs_epsg(3857);
  img.set_geotransform({-74.05, 0.025, 0.0, 40.9, 0.0, -0.019});
  const ScopedTempPath path("img.gtif");
  ASSERT_TRUE(WriteGeotiffImage(img, path).ok());
  auto loaded = LoadGeotiffImage(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->crs_epsg(), 3857);
  EXPECT_EQ(loaded->geotransform()[1], 0.025);
  EXPECT_EQ(loaded->at(0, 2, 2), img.at(0, 2, 2));
}

TEST(RasterIoTest, RejectsGarbage) {
  const ScopedTempPath path("garbage.gtif");
  FILE* f = fopen(path.str().c_str(), "wb");
  fputs("not a raster", f);
  fclose(f);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
}

// Writes a GTIF1 file with an arbitrary (possibly hostile) header and
// `payload_floats` floats of payload.
void WriteRawGtif(const std::string& path, const char* magic, int64_t h,
                  int64_t w, int64_t b, int64_t payload_floats) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(magic, 1, 5, f);
  fwrite(&h, sizeof(h), 1, f);
  fwrite(&w, sizeof(w), 1, f);
  fwrite(&b, sizeof(b), 1, f);
  const int32_t epsg = 4326;
  fwrite(&epsg, sizeof(epsg), 1, f);
  const double gt[6] = {0, 1, 0, 0, 0, 1};
  fwrite(gt, sizeof(double), 6, f);
  const std::vector<float> payload(payload_floats, 1.0f);
  if (!payload.empty()) {
    fwrite(payload.data(), sizeof(float), payload.size(), f);
  }
  fclose(f);
}

TEST(RasterIoTest, RejectsBadMagic) {
  const ScopedTempPath path("bad_magic.gtif");
  WriteRawGtif(path, "GTIF9", 2, 2, 1, 4);
  auto loaded = LoadGeotiffImage(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(RasterIoTest, RejectsTruncatedHeader) {
  const ScopedTempPath path("short_header.gtif");
  FILE* f = fopen(path.str().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite("GTIF1", 1, 5, f);
  const int64_t h = 4;
  fwrite(&h, sizeof(h), 1, f);  // header stops mid-way
  fclose(f);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
}

TEST(RasterIoTest, RejectsTruncatedPayload) {
  // Header promises 4x4x2 = 32 floats; the file carries only 5. The
  // loader must notice before reading, not return a half-filled image.
  const ScopedTempPath path("short_payload.gtif");
  WriteRawGtif(path, "GTIF1", 4, 4, 2, 5);
  auto loaded = LoadGeotiffImage(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(RasterIoTest, RejectsAbsurdDims) {
  const ScopedTempPath path("absurd.gtif");
  // Non-positive dims.
  WriteRawGtif(path, "GTIF1", 0, 4, 1, 0);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
  WriteRawGtif(path, "GTIF1", 4, -1, 1, 0);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
  // A single huge side / band count: must be rejected without
  // attempting the (terabyte-scale) allocation the header implies.
  WriteRawGtif(path, "GTIF1", int64_t{1} << 21, 4, 1, 0);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
  WriteRawGtif(path, "GTIF1", 4, 4, int64_t{1} << 15, 0);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
  // Dims whose product overflows int64: each factor passes a naive
  // positivity check, and (2^40)^3 wraps around to something small.
  WriteRawGtif(path, "GTIF1", int64_t{1} << 40, int64_t{1} << 40,
               int64_t{1} << 40, 0);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
  // Element count just over the cap with in-range sides.
  WriteRawGtif(path, "GTIF1", int64_t{1} << 20, int64_t{1} << 20, 4, 0);
  EXPECT_FALSE(LoadGeotiffImage(path).ok());
}

TEST(RasterIoTest, TrailingBytesAreTolerated) {
  // A payload longer than promised is not an error — only shorter is.
  const ScopedTempPath path("padded.gtif");
  WriteRawGtif(path, "GTIF1", 2, 2, 1, 4 + 3);
  auto loaded = LoadGeotiffImage(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->height(), 2);
  EXPECT_EQ(loaded->at(0, 1, 1), 1.0f);
}

TEST(RasterOpsTest, NormalizedDifferenceIndex) {
  RasterImage img(1, 2, 2);
  img.at(0, 0, 0) = 3.0f;
  img.at(0, 0, 1) = 0.0f;
  img.at(1, 0, 0) = 1.0f;
  img.at(1, 0, 1) = 0.0f;
  std::vector<float> ndi = NormalizedDifferenceIndex(img, 0, 1);
  EXPECT_NEAR(ndi[0], 0.5f, 1e-6);  // (3-1)/(3+1)
  EXPECT_EQ(ndi[1], 0.0f);          // 0/0 -> 0
}

TEST(RasterOpsTest, AppendAndDeleteBand) {
  RasterImage img = SampleImage();
  RasterImage appended = AppendNormalizedDifferenceIndex(img, 0, 1);
  EXPECT_EQ(appended.bands(), 3);
  // Original bands intact.
  EXPECT_EQ(appended.at(0, 1, 1), img.at(0, 1, 1));
  RasterImage deleted = DeleteBand(appended, 0);
  EXPECT_EQ(deleted.bands(), 2);
  EXPECT_EQ(deleted.at(0, 1, 1), img.at(1, 1, 1));  // band 1 shifted down
}

TEST(RasterOpsTest, NormalizeBand) {
  RasterImage img = SampleImage();
  NormalizeBandInPlace(img, 0);
  EXPECT_EQ(img.at(0, 0, 0), 0.0f);
  EXPECT_EQ(img.at(0, 3, 3), 1.0f);
}

TEST(RasterOpsTest, NormalizeConstantBand) {
  RasterImage img(2, 2, 1);
  img.at(0, 0, 0) = img.at(0, 0, 1) = img.at(0, 1, 0) = img.at(0, 1, 1) =
      5.0f;
  NormalizeBandInPlace(img, 0);
  EXPECT_EQ(img.at(0, 0, 0), 0.0f);
}

TEST(RasterOpsTest, MaskBand) {
  RasterImage img = SampleImage();
  MaskBandInPlace(img, 0, 10.0f, /*mask_upper=*/true);
  EXPECT_EQ(img.at(0, 3, 3), 0.0f);  // was 15
  EXPECT_EQ(img.at(0, 0, 1), 1.0f);  // below threshold
  MaskBandInPlace(img, 0, 1.5f, /*mask_upper=*/false);
  EXPECT_EQ(img.at(0, 0, 1), 0.0f);
}

TEST(RasterOpsTest, BandArithmetic) {
  RasterImage img = SampleImage();
  std::vector<float> sum = AddBands(img, 0, 1);
  for (float v : sum) EXPECT_EQ(v, 16.0f);
  std::vector<float> prod = MultiplyBands(img, 0, 1);
  EXPECT_EQ(prod[1], 15.0f);  // 1*15
  std::vector<float> quot = DivideBands(img, 1, 0);
  EXPECT_EQ(quot[0], 0.0f);  // divide by zero -> 0
  EXPECT_EQ(quot[1], 15.0f);
  std::vector<float> diff = SubtractBands(img, 1, 0);
  EXPECT_EQ(diff[0], 16.0f);
}

TEST(RasterOpsTest, BitwiseOps) {
  RasterImage img(1, 1, 2);
  img.at(0, 0, 0) = 6.0f;  // 0b110
  img.at(1, 0, 0) = 3.0f;  // 0b011
  EXPECT_EQ(BitwiseAndBands(img, 0, 1)[0], 2.0f);
  EXPECT_EQ(BitwiseOrBands(img, 0, 1)[0], 7.0f);
}

TEST(RasterOpsTest, BandStats) {
  RasterImage img = SampleImage();
  EXPECT_NEAR(BandMean(img, 0), 7.5f, 1e-6);
  EXPECT_NEAR(BandSquareRoot(img, 0)[4], 2.0f, 1e-6);
  EXPECT_NEAR(BandModulo(img, 0, 4.0f)[5], 1.0f, 1e-6);  // 5 mod 4

  RasterImage modal(2, 2, 1);
  modal.at(0, 0, 0) = 2.0f;
  modal.at(0, 0, 1) = 2.0f;
  modal.at(0, 1, 0) = 3.0f;
  modal.at(0, 1, 1) = 1.0f;
  EXPECT_EQ(BandMode(modal, 0), 2.0f);
}

TEST(GlcmTest, ConstantImageProperties) {
  RasterImage img(8, 8, 1);
  img.data().assign(img.data().size(), 3.0f);
  GlcmFeatures f = ComputeGlcmFeatures(img, 0);
  // All mass on the diagonal at one level.
  EXPECT_NEAR(f.contrast, 0.0f, 1e-6);
  EXPECT_NEAR(f.dissimilarity, 0.0f, 1e-6);
  EXPECT_NEAR(f.homogeneity, 1.0f, 1e-6);
  EXPECT_NEAR(f.asm_value, 1.0f, 1e-6);
  EXPECT_NEAR(f.energy, 1.0f, 1e-6);
  EXPECT_NEAR(f.entropy, 0.0f, 1e-6);
}

TEST(GlcmTest, CheckerboardHasHighContrast) {
  RasterImage board(8, 8, 1);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      board.at(0, i, j) = static_cast<float>((i + j) % 2);
    }
  }
  GlcmFeatures checker = ComputeGlcmFeatures(board, 0, /*levels=*/2);
  RasterImage smooth(8, 8, 1);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      smooth.at(0, i, j) = static_cast<float>(j) / 8.0f;
    }
  }
  GlcmFeatures grad = ComputeGlcmFeatures(smooth, 0, /*levels=*/2);
  EXPECT_GT(checker.contrast, grad.contrast);
  EXPECT_LT(checker.homogeneity, grad.homogeneity);
}

TEST(GlcmTest, FeatureVectorHasSixEntries) {
  Rng rng(1);
  RasterImage img(16, 16, 1);
  for (auto& v : img.data()) v = static_cast<float>(rng.Uniform(0, 1));
  std::vector<float> features = GlcmFeatureVector(img, 0);
  EXPECT_EQ(features.size(), 6u);
  for (float f : features) EXPECT_TRUE(std::isfinite(f));
}

}  // namespace
}  // namespace geotorch::raster
