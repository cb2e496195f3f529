#ifndef GEOTORCH_IO_CHECKPOINT_H_
#define GEOTORCH_IO_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace geotorch::io {

/// How the int8 payload of a QuantTensor maps back to real values.
enum class QuantKind : uint8_t {
  kPerTensor = 0,  ///< one scale for the whole tensor
  kPerRow = 1,     ///< scales[dims[0]] — conv weights (F, C, KH, KW)
  kPerCol = 2,     ///< scales[dims.back()] — linear weights (in, out)
};

/// A symmetric int8-quantized tensor record (GTCP v2, DESIGN.md §10):
/// real value = data[i] * scale_for(i); zero_point is stored for format
/// completeness and is always 0 under the symmetric scheme.
struct QuantTensor {
  std::string name;
  std::vector<int64_t> dims;
  QuantKind kind = QuantKind::kPerTensor;
  int32_t zero_point = 0;
  std::vector<float> scales;
  std::vector<int8_t> data;  ///< row-major, product(dims) elements

  int64_t numel() const;
};

/// An in-memory checkpoint: named float32 tensors, optional int8
/// quantized tensors, plus named int64 / float64 scalars (epoch
/// counters, optimizer clocks, config fields). The on-disk format
/// (DESIGN.md §9–10) is a single versioned binary blob:
///
///   "GTCP" magic | u32 version | u32 counts (tensors/ints/floats,
///   + qtensors when version >= 2)
///   per tensor:  u32 name_len | name | u32 rank | i64 dims | f32 payload
///   per qtensor: u32 name_len | name | u8 kind | u32 rank | i64 dims |
///                i32 zero_point | u32 nscales | f32 scales | i8 payload
///   per int:     u32 name_len | name | i64 value
///   per float:   u32 name_len | name | f64 value
///   u32 CRC-32 trailer over every preceding byte
///
/// A checkpoint with no qtensors is written as version 1 — byte-for-
/// byte the pre-quantization format — so old readers (and old files)
/// keep working; files claiming a version newer than this build are
/// rejected with a Status, never parsed speculatively.
///
/// Readers validate the magic, version, CRC, and every record bound
/// before touching tensor storage, so truncated or bit-flipped files
/// come back as Status errors, never crashes.
struct Checkpoint {
  std::vector<std::pair<std::string, tensor::Tensor>> tensors;
  std::vector<QuantTensor> qtensors;
  std::vector<std::pair<std::string, int64_t>> ints;
  std::vector<std::pair<std::string, double>> floats;

  /// Linear lookups (checkpoints hold tens of entries, not millions).
  const tensor::Tensor* FindTensor(const std::string& name) const;
  const QuantTensor* FindQuantTensor(const std::string& name) const;
  const int64_t* FindInt(const std::string& name) const;
  const double* FindFloat(const std::string& name) const;
};

/// Serializes `ckpt` to `path`. The bytes go to a sibling temp file
/// that is renamed over `path` once closed, so a concurrent reader (a
/// fleet reload racing a trainer's per-epoch write) opens the old file
/// or the new one, never a torn one, and a crash mid-write leaves `path`
/// as it was. There is no fsync: the guarantee covers process crashes,
/// not power loss. On error the temp file is removed.
Status WriteCheckpoint(const std::string& path, const Checkpoint& ckpt);

/// Parses a checkpoint written by WriteCheckpoint. Any structural
/// problem — wrong magic, unsupported version, truncation, CRC
/// mismatch, out-of-bounds record — returns an error Status.
Result<Checkpoint> ReadCheckpoint(const std::string& path);

struct LoadOptions {
  /// Strict (the default) requires the checkpoint's tensor names and
  /// the module's parameter names to match exactly. Permissive loads
  /// the intersection and ignores the rest. Shape mismatches on a
  /// matched name are an error in both modes.
  bool strict = true;
};

/// Writes every named parameter of `module` to `path`.
Status SaveStateDict(const nn::Module& module, const std::string& path);

/// Symmetric int8 quantization of one f32 tensor: per output channel
/// for weights (rank 2 → per column, rank >= 3 → per first dim), per
/// tensor otherwise.
QuantTensor QuantizeTensor(const std::string& name, const tensor::Tensor& t);

/// Reconstructs the f32 tensor a QuantTensor approximates.
tensor::Tensor DequantizeTensor(const QuantTensor& q);

/// Like SaveStateDict but stores every parameter of rank >= 2 as an
/// int8 QuantTensor (per-output-channel scales, ~4x smaller on disk);
/// rank-0/1 parameters (biases, norm affines) stay f32. The file is
/// GTCP version 2; LoadStateDict dequantizes transparently on load.
Status SaveQuantizedStateDict(const nn::Module& module,
                              const std::string& path);

/// Loads a state dict produced by SaveStateDict into `module`,
/// overwriting parameter values in place (existing storage, existing
/// autograd nodes — optimizers holding the parameters stay valid).
Status LoadStateDict(nn::Module& module, const std::string& path,
                     const LoadOptions& options = {});

/// In-memory half of LoadStateDict, reused by the trainer's resume
/// path: applies `ckpt.tensors` (filtered by `prefix`, which is
/// stripped before the name lookup) to the module's parameters.
Status ApplyStateDict(nn::Module& module, const Checkpoint& ckpt,
                      const LoadOptions& options = {},
                      const std::string& prefix = "");

}  // namespace geotorch::io

#endif  // GEOTORCH_IO_CHECKPOINT_H_
