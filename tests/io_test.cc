// Checkpoint format and state-dict round-trips. The acceptance bar is
// bitwise: save -> load into a differently-initialized clone must make
// every parameter and every forward output bit-identical to the
// original, for all nine paper models. Corrupted files (truncation,
// bad magic, bit flips caught by the CRC trailer) must come back as
// Status errors, never crashes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "data/dataloader.h"
#include "datasets/benchmarks.h"
#include "io/checkpoint.h"
#include "io/crc32.h"
#include "models/grid_models.h"
#include "models/raster_models.h"
#include "models/segmentation_models.h"
#include "nn/layers.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;
namespace data = ::geotorch::data;
namespace datasets = ::geotorch::datasets;
namespace io = ::geotorch::io;
namespace models = ::geotorch::models;
namespace nn = ::geotorch::nn;
using ::geotorch::ScopedTempPath;
using ::geotorch::Status;

std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  if (t.numel() > 0) {
    std::memcpy(bits.data(), t.data(), t.numel() * sizeof(uint32_t));
  }
  return bits;
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- CRC-32 ----------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The classic zlib check value.
  EXPECT_EQ(geotorch::io::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(geotorch::io::Crc32("", 0), 0u);
}

TEST(Crc32Test, SeedChainsAcrossChunks) {
  const char* msg = "spatiotemporal";
  const uint32_t whole = geotorch::io::Crc32(msg, 14);
  const uint32_t chained =
      geotorch::io::Crc32(msg + 5, 9, geotorch::io::Crc32(msg, 5));
  EXPECT_EQ(whole, chained);
}

// --- Checkpoint container round-trip ---------------------------------------

TEST(CheckpointTest, RoundTripsTensorsAndScalars) {
  io::Checkpoint ckpt;
  geotorch::Rng rng(11);
  ckpt.tensors.emplace_back("w", ts::Tensor::Randn({3, 4}, rng));
  ckpt.tensors.emplace_back("b", ts::Tensor::Arange(7));
  ckpt.tensors.emplace_back("scalar", ts::Tensor::Scalar(-2.5f));
  ckpt.ints.emplace_back("epoch", 12);
  ckpt.ints.emplace_back("step", -3);
  ckpt.floats.emplace_back("lr", 1e-3);

  const ScopedTempPath path("roundtrip.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, ckpt).ok());
  auto loaded = io::ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->tensors.size(), 3u);
  for (size_t i = 0; i < ckpt.tensors.size(); ++i) {
    EXPECT_EQ(loaded->tensors[i].first, ckpt.tensors[i].first);
    EXPECT_EQ(loaded->tensors[i].second.shape(),
              ckpt.tensors[i].second.shape());
    EXPECT_EQ(Bits(loaded->tensors[i].second), Bits(ckpt.tensors[i].second));
  }
  const int64_t* epoch = loaded->FindInt("epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(*epoch, 12);
  const int64_t* step = loaded->FindInt("step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(*step, -3);
  const double* lr = loaded->FindFloat("lr");
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(*lr, 1e-3);
  EXPECT_EQ(loaded->FindTensor("nope"), nullptr);
  EXPECT_EQ(loaded->FindInt("nope"), nullptr);
  EXPECT_EQ(loaded->FindFloat("nope"), nullptr);
}

TEST(CheckpointTest, EmptyCheckpointRoundTrips) {
  const ScopedTempPath path("empty.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, io::Checkpoint{}).ok());
  auto loaded = io::ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->tensors.empty());
  EXPECT_TRUE(loaded->ints.empty());
  EXPECT_TRUE(loaded->floats.empty());
}

// --- Corruption ------------------------------------------------------------

io::Checkpoint SmallCheckpoint() {
  io::Checkpoint ckpt;
  geotorch::Rng rng(5);
  ckpt.tensors.emplace_back("layer.weight", ts::Tensor::Randn({4, 4}, rng));
  ckpt.ints.emplace_back("epoch", 3);
  return ckpt;
}

TEST(CheckpointTest, MissingFileIsAnError) {
  auto r = io::ReadCheckpoint(testing::TempDir() + "/does_not_exist.ckpt");
  EXPECT_FALSE(r.ok());
}

TEST(CheckpointTest, TruncationAtEveryPrefixIsAnErrorNotACrash) {
  const ScopedTempPath path("trunc_src.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  const std::vector<unsigned char> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 16u);

  const ScopedTempPath trunc("trunc.ckpt");
  // Every proper prefix must be rejected (CRC or bounds), including the
  // empty file and a cut mid-header.
  for (size_t keep = 0; keep < bytes.size(); keep += 7) {
    WriteFileBytes(trunc, std::vector<unsigned char>(bytes.begin(),
                                                     bytes.begin() + keep));
    auto r = io::ReadCheckpoint(trunc);
    EXPECT_FALSE(r.ok()) << "prefix of " << keep << " bytes was accepted";
  }
}

// A reader racing a writer (a fleet reload during a trainer's per-epoch
// write) must always see a whole checkpoint, old or new, and the writer
// must leave no temp file behind.
TEST(CheckpointTest, ReadsRacingRewritesNeverSeeATornFile) {
  const ScopedTempPath dir("ckpt_race");
  std::filesystem::create_directory(dir.str());
  const std::string path = dir.str() + "/model.ckpt";
  io::Checkpoint ckpt;
  geotorch::Rng rng(9);
  ckpt.tensors.emplace_back("w", ts::Tensor::Randn({256, 256}, rng));
  ASSERT_TRUE(io::WriteCheckpoint(path, ckpt).ok());

  constexpr int kRounds = 200;
  std::thread writer([&] {
    for (int i = 0; i < kRounds; ++i) {
      ckpt.ints.assign({{"epoch", i}});
      EXPECT_TRUE(io::WriteCheckpoint(path, ckpt).ok()) << i;
    }
  });
  int bad_reads = 0;
  std::string first_error;
  for (int i = 0; i < kRounds; ++i) {
    auto r = io::ReadCheckpoint(path);
    if (!r.ok()) {
      if (bad_reads++ == 0) first_error = r.status().ToString();
    }
  }
  writer.join();
  EXPECT_EQ(bad_reads, 0) << first_error;
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"model.ckpt"});
}

TEST(CheckpointTest, BadMagicIsAnError) {
  const ScopedTempPath path("bad_magic.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto r = io::ReadCheckpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), geotorch::StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, BitFlipFailsTheCrc) {
  const ScopedTempPath path("bitflip.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  // Flip one bit in the middle of the tensor payload.
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFileBytes(path, bytes);
  auto r = io::ReadCheckpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("CRC"), std::string::npos)
      << r.status().ToString();
}

TEST(CheckpointTest, TrailingGarbageIsAnError) {
  const ScopedTempPath path("trailing.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  std::vector<unsigned char> bytes = ReadFileBytes(path);
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(io::ReadCheckpoint(path).ok());
}

// --- Module::LoadNamedParameter --------------------------------------------

TEST(LoadNamedParameterTest, OverwritesInPlaceAndChecksShapes) {
  geotorch::Rng rng(1);
  nn::Linear lin(3, 2, rng);
  auto named = lin.NamedParameters();
  ASSERT_FALSE(named.empty());
  const std::string name = named[0].first;
  const ts::Shape shape = named[0].second.value().shape();

  // The Variable returned by NamedParameters shares storage with the
  // module's own parameter, so an in-place load must show through it.
  ts::Tensor replacement = ts::Tensor::Full(shape, 0.25f);
  ASSERT_TRUE(lin.LoadNamedParameter(name, replacement).ok());
  EXPECT_EQ(Bits(lin.NamedParameters()[0].second.value()),
            Bits(replacement));

  Status bad_shape = lin.LoadNamedParameter(name, ts::Tensor::Zeros({5}));
  ASSERT_FALSE(bad_shape.ok());
  EXPECT_EQ(bad_shape.code(), geotorch::StatusCode::kInvalidArgument);

  Status missing =
      lin.LoadNamedParameter("no.such.param", ts::Tensor::Zeros(shape));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), geotorch::StatusCode::kNotFound);
}

// --- Strict vs permissive state-dict loading -------------------------------

TEST(StateDictTest, StrictRejectsMissingAndUnknownNames) {
  geotorch::Rng rng(1);
  nn::Linear lin(3, 2, rng);

  // Unknown extra tensor in the checkpoint.
  io::Checkpoint extra;
  for (const auto& [name, p] : lin.NamedParameters()) {
    extra.tensors.emplace_back(name, p.value());
  }
  extra.tensors.emplace_back("ghost", ts::Tensor::Zeros({2}));
  EXPECT_FALSE(io::ApplyStateDict(lin, extra).ok());
  EXPECT_TRUE(io::ApplyStateDict(lin, extra, {/*strict=*/false}).ok());

  // Checkpoint missing one of the module's parameters.
  io::Checkpoint partial;
  partial.tensors.emplace_back(lin.NamedParameters()[0].first,
                               lin.NamedParameters()[0].second.value());
  EXPECT_FALSE(io::ApplyStateDict(lin, partial).ok());
  EXPECT_TRUE(io::ApplyStateDict(lin, partial, {/*strict=*/false}).ok());
}

TEST(StateDictTest, ShapeMismatchFailsEvenPermissively) {
  geotorch::Rng rng(1);
  nn::Linear lin(3, 2, rng);
  io::Checkpoint ckpt;
  ckpt.tensors.emplace_back(lin.NamedParameters()[0].first,
                            ts::Tensor::Zeros({9, 9}));
  EXPECT_FALSE(io::ApplyStateDict(lin, ckpt).ok());
  EXPECT_FALSE(io::ApplyStateDict(lin, ckpt, {/*strict=*/false}).ok());
}

TEST(StateDictTest, LoadFromDifferentArchitectureFailsCleanly) {
  geotorch::Rng rng1(1);
  geotorch::Rng rng2(2);
  nn::Linear small(3, 2, rng1);
  nn::Linear big(8, 4, rng2);
  const ScopedTempPath path("arch_mismatch.ckpt");
  ASSERT_TRUE(io::SaveStateDict(small, path).ok());
  EXPECT_FALSE(io::LoadStateDict(big, path).ok());
}

// --- Full-model round-trips ------------------------------------------------

// Saves `src`, loads into `dst` (differently initialized, same
// architecture), and requires every named parameter to match bitwise.
void ExpectStateDictRoundTrip(const std::string& label, nn::Module& src,
                              nn::Module& dst) {
  const ScopedTempPath path(label + ".ckpt");
  ASSERT_TRUE(io::SaveStateDict(src, path).ok()) << label;
  ASSERT_TRUE(io::LoadStateDict(dst, path).ok()) << label;

  const auto a = src.NamedParameters();
  const auto b = dst.NamedParameters();
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << label;
    EXPECT_EQ(Bits(a[i].second.value()), Bits(b[i].second.value()))
        << label << ": parameter " << a[i].first << " differs after load";
  }
}

data::Batch FirstBatch(const data::Dataset& ds, int64_t batch_size) {
  data::DataLoader loader(&ds, batch_size, /*shuffle=*/false);
  data::Batch batch;
  EXPECT_TRUE(loader.Next(&batch));
  return batch;
}

enum class GridKind { kPeriodicalCnn, kConvLstm, kStResNet, kDeepStnPlus };

std::unique_ptr<models::GridModel> MakeGridModel(
    GridKind kind, const models::GridModelConfig& mc) {
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
}

void RunGridRoundTrip(GridKind kind, const std::string& label) {
  datasets::GridDataset ds = datasets::MakeTemperature(
      /*timesteps=*/200, /*height=*/8, /*width=*/8, /*seed=*/7);
  ds.MinMaxNormalize();

  models::GridModelConfig mc;
  mc.channels = ds.channels();
  mc.height = ds.height();
  mc.width = ds.width();
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 8;
  mc.seed = 42;
  if (kind == GridKind::kConvLstm) {
    ds.SetSequentialRepresentation(/*history=*/4, /*prediction=*/1);
  } else {
    ds.SetPeriodicalRepresentation(mc.len_closeness, mc.len_period,
                                   mc.len_trend);
  }
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/2);

  auto src = MakeGridModel(kind, mc);
  models::GridModelConfig mc2 = mc;
  mc2.seed = 43;  // different init: the load must overwrite everything
  auto dst = MakeGridModel(kind, mc2);
  ExpectStateDictRoundTrip(label, *src, *dst);

  // With identical parameters, the forward outputs must be bitwise
  // identical too.
  src->SetTraining(false);
  dst->SetTraining(false);
  ag::NoGradGuard no_grad;
  EXPECT_EQ(Bits(src->Forward(batch).value()),
            Bits(dst->Forward(batch).value()))
      << label << ": forward differs after state-dict load";
}

TEST(StateDictRoundTrip, PeriodicalCnn) {
  RunGridRoundTrip(GridKind::kPeriodicalCnn, "PeriodicalCnn");
}
TEST(StateDictRoundTrip, ConvLstm) {
  RunGridRoundTrip(GridKind::kConvLstm, "ConvLstm");
}
TEST(StateDictRoundTrip, StResNet) {
  RunGridRoundTrip(GridKind::kStResNet, "StResNet");
}
TEST(StateDictRoundTrip, DeepStnPlus) {
  RunGridRoundTrip(GridKind::kDeepStnPlus, "DeepStnPlus");
}

template <typename Model>
void RunRasterRoundTrip(const std::string& label, bool with_features) {
  datasets::RasterDatasetOptions options;
  options.include_additional_features = with_features;
  datasets::RasterClassificationDataset ds =
      datasets::MakeEuroSat(/*n=*/4, options, /*seed=*/3);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/2);

  models::RasterModelConfig rc;
  rc.in_channels = 13;
  rc.in_height = 64;
  rc.in_width = 64;
  rc.num_classes = 10;
  rc.num_filtered_features =
      with_features ? ds.num_additional_features() : 0;
  rc.base_filters = 8;
  rc.seed = 42;

  Model src(rc);
  models::RasterModelConfig rc2 = rc;
  rc2.seed = 43;
  Model dst(rc2);
  ExpectStateDictRoundTrip(label, src, dst);

  src.SetTraining(false);
  dst.SetTraining(false);
  ag::NoGradGuard no_grad;
  ag::Variable features =
      with_features ? ag::Variable(batch.extras[0]) : ag::Variable();
  EXPECT_EQ(Bits(src.Forward(ag::Variable(batch.x), features).value()),
            Bits(dst.Forward(ag::Variable(batch.x), features).value()))
      << label << ": forward differs after state-dict load";
}

TEST(StateDictRoundTrip, SatCnn) {
  RunRasterRoundTrip<models::SatCnn>("SatCnn", /*with_features=*/false);
}
TEST(StateDictRoundTrip, DeepSatV2) {
  RunRasterRoundTrip<models::DeepSatV2>("DeepSatV2", /*with_features=*/true);
}

template <typename Model>
void RunSegRoundTrip(const std::string& label) {
  datasets::RasterSegmentationDataset ds =
      datasets::MakeCloud38(/*n=*/4, /*size=*/16, {}, /*seed=*/5);
  const data::Batch batch = FirstBatch(ds, /*batch_size=*/2);

  models::SegModelConfig sc;
  sc.in_channels = 4;
  sc.num_classes = 2;
  sc.base_filters = 4;
  sc.seed = 42;

  Model src(sc);
  models::SegModelConfig sc2 = sc;
  sc2.seed = 43;
  Model dst(sc2);
  ExpectStateDictRoundTrip(label, src, dst);

  src.SetTraining(false);
  dst.SetTraining(false);
  ag::NoGradGuard no_grad;
  EXPECT_EQ(Bits(src.Forward(ag::Variable(batch.x)).value()),
            Bits(dst.Forward(ag::Variable(batch.x)).value()))
      << label << ": forward differs after state-dict load";
}

TEST(StateDictRoundTrip, Fcn) { RunSegRoundTrip<models::Fcn>("Fcn"); }
TEST(StateDictRoundTrip, UNet) { RunSegRoundTrip<models::UNet>("UNet"); }
TEST(StateDictRoundTrip, UNetPlusPlus) {
  RunSegRoundTrip<models::UNetPlusPlus>("UNetPlusPlus");
}

// --- GTCP v2: version skew and quantized records ---------------------------

template <typename T>
void Append(std::vector<unsigned char>& out, T v) {
  unsigned char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.insert(out.end(), buf, buf + sizeof(T));
}

void AppendName(std::vector<unsigned char>& out, const std::string& s) {
  Append(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Rewrites the u32 version field at byte offset 4 and recomputes the
// CRC trailer, so the reader sees a structurally-valid file from "the
// future" and the only thing that can fire is the version check.
std::vector<unsigned char> WithVersion(std::vector<unsigned char> bytes,
                                       uint32_t version) {
  EXPECT_GE(bytes.size(), 12u);
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  const uint32_t crc =
      geotorch::io::Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  return bytes;
}

uint32_t VersionField(const std::vector<unsigned char>& bytes) {
  uint32_t v = 0;
  EXPECT_GE(bytes.size(), 8u);
  std::memcpy(&v, bytes.data() + 4, sizeof(v));
  return v;
}

io::QuantTensor SmallQuantTensor() {
  io::QuantTensor q;
  q.name = "layer.weight.q";
  q.dims = {3, 5};
  q.kind = io::QuantKind::kPerCol;
  q.zero_point = 0;
  q.scales = {0.01f, 0.02f, 0.03f, 0.04f, 0.05f};
  q.data = {1, -2, 3, -4, 5, 6, -7, 8, -9, 10, 11, -12, 13, -14, 15};
  return q;
}

TEST(GtcpVersionTest, F32OnlyFilesStayVersion1) {
  // Files without quantized records must keep the pre-quantization
  // byte layout (version 1) so checkpoints written before this build —
  // and readers built before it — keep working.
  const ScopedTempPath path("v1_f32_only.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  EXPECT_EQ(VersionField(ReadFileBytes(path)), 1u);
}

TEST(GtcpVersionTest, QuantizedFilesAreVersion2) {
  io::Checkpoint ckpt = SmallCheckpoint();
  ckpt.qtensors.push_back(SmallQuantTensor());
  const ScopedTempPath path("v2_quant.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, ckpt).ok());
  EXPECT_EQ(VersionField(ReadFileBytes(path)), 2u);
}

TEST(GtcpVersionTest, NewerVersionIsRejectedWithStatusNotParsed) {
  const ScopedTempPath path("v3_future.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  const std::vector<unsigned char> original = ReadFileBytes(path);
  for (uint32_t future : {3u, 7u, 0xFFFFFFFFu}) {
    const ScopedTempPath patched("v3_future_patched.ckpt");
    WriteFileBytes(patched, WithVersion(original, future));
    auto r = io::ReadCheckpoint(patched);
    ASSERT_FALSE(r.ok()) << "version " << future << " must be rejected";
    EXPECT_NE(r.status().message().find("newer"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(GtcpVersionTest, VersionZeroIsRejected) {
  const ScopedTempPath path("v0.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, SmallCheckpoint()).ok());
  const ScopedTempPath patched("v0_patched.ckpt");
  WriteFileBytes(patched, WithVersion(ReadFileBytes(path), 0));
  EXPECT_FALSE(io::ReadCheckpoint(patched).ok());
}

TEST(GtcpVersionTest, HandBuiltV1BlobStillParses) {
  // A byte-for-byte v1 file assembled by hand, guarding the PR 5
  // format against accidental layout drift: if this stops parsing,
  // every old f32 checkpoint in the wild stops loading.
  std::vector<unsigned char> bytes = {'G', 'T', 'C', 'P'};  // magic
  Append(bytes, uint32_t{1});  // version
  Append(bytes, uint32_t{1});  // num tensors
  Append(bytes, uint32_t{1});  // num ints
  Append(bytes, uint32_t{1});  // num floats
  AppendName(bytes, "w");
  Append(bytes, uint32_t{1});  // rank
  Append(bytes, int64_t{2});   // dims
  Append(bytes, 1.5f);
  Append(bytes, -2.0f);
  AppendName(bytes, "epoch");
  Append(bytes, int64_t{7});
  AppendName(bytes, "lr");
  Append(bytes, 0.5);
  Append(bytes, geotorch::io::Crc32(bytes.data(), bytes.size()));

  const ScopedTempPath path("golden_v1.ckpt");
  WriteFileBytes(path, bytes);
  auto r = io::ReadCheckpoint(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->tensors.size(), 1u);
  EXPECT_EQ(r->tensors[0].first, "w");
  ASSERT_EQ(r->tensors[0].second.numel(), 2);
  EXPECT_EQ(r->tensors[0].second.data()[0], 1.5f);
  EXPECT_EQ(r->tensors[0].second.data()[1], -2.0f);
  const int64_t* epoch = r->FindInt("epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(*epoch, 7);
  const double* lr = r->FindFloat("lr");
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(*lr, 0.5);
  EXPECT_TRUE(r->qtensors.empty());
}

TEST(QuantizedCheckpointTest, QuantTensorRecordRoundTrips) {
  io::Checkpoint ckpt;
  ckpt.qtensors.push_back(SmallQuantTensor());
  const ScopedTempPath path("qtensor_roundtrip.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(path, ckpt).ok());
  auto r = io::ReadCheckpoint(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->qtensors.size(), 1u);
  const io::QuantTensor& got = r->qtensors[0];
  const io::QuantTensor want = SmallQuantTensor();
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.dims, want.dims);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.zero_point, want.zero_point);
  EXPECT_EQ(got.scales, want.scales);
  EXPECT_EQ(got.data, want.data);
  EXPECT_EQ(r->FindQuantTensor("layer.weight.q"), &r->qtensors[0]);
  EXPECT_EQ(r->FindQuantTensor("nope"), nullptr);
}

TEST(QuantizedCheckpointTest, SaveLoadSaveIsBitwiseIdentical) {
  // The acceptance bar for quantized files: write -> read -> write
  // must reproduce the first file byte for byte, so re-saving a loaded
  // quantized checkpoint can never silently change its contents.
  io::Checkpoint ckpt = SmallCheckpoint();
  geotorch::Rng rng(17);
  ckpt.qtensors.push_back(SmallQuantTensor());
  ckpt.qtensors.push_back(
      io::QuantizeTensor("conv.weight.q", ts::Tensor::Randn({2, 3, 3, 3}, rng)));
  ckpt.floats.emplace_back("val_loss", 0.125);

  const ScopedTempPath first("bitwise_first.ckpt");
  const ScopedTempPath second("bitwise_second.ckpt");
  ASSERT_TRUE(io::WriteCheckpoint(first, ckpt).ok());
  auto loaded = io::ReadCheckpoint(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(io::WriteCheckpoint(second, *loaded).ok());
  EXPECT_EQ(ReadFileBytes(first), ReadFileBytes(second));
}

void ExpectDequantWithinHalfScale(const ts::Tensor& t) {
  const io::QuantTensor q = io::QuantizeTensor("t", t);
  const ts::Tensor back = io::DequantizeTensor(q);
  ASSERT_EQ(back.shape(), t.shape());
  // Map flat index -> scale for this element under the record's kind.
  const int64_t cols = t.ndim() >= 2 ? t.shape().back() : 1;
  const int64_t rows = t.ndim() >= 1 ? t.shape()[0] : 1;
  const int64_t row_stride = t.numel() / std::max<int64_t>(rows, 1);
  for (int64_t i = 0; i < t.numel(); ++i) {
    float scale = q.scales[0];
    if (q.kind == io::QuantKind::kPerCol) {
      scale = q.scales[static_cast<size_t>(i % cols)];
    } else if (q.kind == io::QuantKind::kPerRow) {
      scale = q.scales[static_cast<size_t>(i / row_stride)];
    }
    EXPECT_LE(std::abs(back.data()[i] - t.data()[i]), 0.5f * scale + 1e-7f)
        << "element " << i;
  }
}

TEST(QuantizedCheckpointTest, DequantErrorAtMostHalfScaleEveryKind) {
  geotorch::Rng rng(23);
  // rank 1 -> per-tensor, rank 2 -> per-col, rank 4 -> per-row.
  ExpectDequantWithinHalfScale(ts::Tensor::Randn({37}, rng));
  ExpectDequantWithinHalfScale(ts::Tensor::Randn({12, 9}, rng));
  ExpectDequantWithinHalfScale(ts::Tensor::Randn({4, 3, 5, 5}, rng));
}

TEST(QuantizedCheckpointTest, QuantizedStateDictLoadsIntoFreshModule) {
  geotorch::Rng rng(29);
  nn::Linear src(10, 6, rng);
  geotorch::Rng rng2(31);
  nn::Linear dst(10, 6, rng2);

  const ScopedTempPath path("quant_state_dict.ckpt");
  ASSERT_TRUE(io::SaveQuantizedStateDict(src, path).ok());
  EXPECT_EQ(VersionField(ReadFileBytes(path)), 2u);
  ASSERT_TRUE(io::LoadStateDict(dst, path).ok());

  auto src_params = src.NamedParameters();
  auto dst_params = dst.NamedParameters();
  ASSERT_EQ(src_params.size(), dst_params.size());
  for (size_t p = 0; p < src_params.size(); ++p) {
    const ts::Tensor& a = src_params[p].second.value();
    const ts::Tensor& b = dst_params[p].second.value();
    ASSERT_EQ(a.shape(), b.shape()) << src_params[p].first;
    if (a.ndim() < 2) {
      // Biases stay f32 in the file: bitwise.
      EXPECT_EQ(Bits(a), Bits(b)) << src_params[p].first;
    } else {
      // Weights went through int8: per-column scale/2 bound.
      const io::QuantTensor q = io::QuantizeTensor("w", a);
      const int64_t cols = a.shape().back();
      for (int64_t i = 0; i < a.numel(); ++i) {
        const float scale = q.scales[static_cast<size_t>(i % cols)];
        EXPECT_LE(std::abs(a.data()[i] - b.data()[i]), 0.5f * scale + 1e-7f)
            << src_params[p].first << " element " << i;
      }
    }
  }
}

}  // namespace
