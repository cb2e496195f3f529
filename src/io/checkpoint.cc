#include "io/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "core/atomic_file.h"
#include "core/check.h"
#include "io/crc32.h"
#include "tensor/quant.h"
#include "tensor/shape.h"

namespace geotorch::io {
namespace {

constexpr char kMagic[4] = {'G', 'T', 'C', 'P'};
// Version 2 added the quantized-tensor section; files without
// qtensors are still written as version 1 (identical bytes to the
// pre-quantization writer) and version-1 files parse forever.
constexpr uint32_t kVersion = 2;
// Sanity bounds: a record that claims more than this is corrupt, not
// merely large (the biggest real model here is ~1M parameters).
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxRank = 16;

// --- Little binary buffer helpers -------------------------------------------

class Writer {
 public:
  template <typename T>
  void Put(const T& v) {
    const size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }
  void PutBytes(const void* p, size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    if (n > 0) std::memcpy(buf_.data() + at, p, n);
  }
  void PutName(const std::string& name) {
    Put(static_cast<uint32_t>(name.size()));
    PutBytes(name.data(), name.size());
  }
  const std::vector<unsigned char>& buffer() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

// Bounds-checked cursor over the file image; every Get reports
// truncation via ok() instead of reading past the end.
class Reader {
 public:
  Reader(const unsigned char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* out) {
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool GetBytes(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool GetName(std::string* out) {
    uint32_t len = 0;
    if (!Get(&len) || len > kMaxNameLen) return false;
    out->resize(len);
    return GetBytes(out->data(), len);
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  size_t size_;
  size_t pos_ = 0;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IoError("corrupt checkpoint " + path + ": " + what);
}

}  // namespace

int64_t QuantTensor::numel() const {
  int64_t n = 1;
  for (int64_t d : dims) n *= d;
  return n;
}

const tensor::Tensor* Checkpoint::FindTensor(const std::string& name) const {
  for (const auto& [n, t] : tensors) {
    if (n == name) return &t;
  }
  return nullptr;
}

const QuantTensor* Checkpoint::FindQuantTensor(const std::string& name) const {
  for (const auto& q : qtensors) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

const int64_t* Checkpoint::FindInt(const std::string& name) const {
  for (const auto& [n, v] : ints) {
    if (n == name) return &v;
  }
  return nullptr;
}

const double* Checkpoint::FindFloat(const std::string& name) const {
  for (const auto& [n, v] : floats) {
    if (n == name) return &v;
  }
  return nullptr;
}

Status WriteCheckpoint(const std::string& path, const Checkpoint& ckpt) {
  Writer w;
  w.PutBytes(kMagic, sizeof(kMagic));
  // A checkpoint with no qtensors serializes as version 1 so f32-only
  // files stay byte-identical to the pre-quantization format.
  const uint32_t version = ckpt.qtensors.empty() ? 1u : kVersion;
  w.Put(version);
  w.Put(static_cast<uint32_t>(ckpt.tensors.size()));
  w.Put(static_cast<uint32_t>(ckpt.ints.size()));
  w.Put(static_cast<uint32_t>(ckpt.floats.size()));
  if (version >= 2) w.Put(static_cast<uint32_t>(ckpt.qtensors.size()));
  for (const auto& [name, t] : ckpt.tensors) {
    w.PutName(name);
    w.Put(static_cast<uint32_t>(t.ndim()));
    for (int64_t d : t.shape()) w.Put(d);
    w.PutBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
  for (const auto& q : ckpt.qtensors) {
    w.PutName(q.name);
    w.Put(static_cast<uint8_t>(q.kind));
    w.Put(static_cast<uint32_t>(q.dims.size()));
    for (int64_t d : q.dims) w.Put(d);
    w.Put(q.zero_point);
    w.Put(static_cast<uint32_t>(q.scales.size()));
    w.PutBytes(q.scales.data(), q.scales.size() * sizeof(float));
    w.PutBytes(q.data.data(), q.data.size());
  }
  for (const auto& [name, v] : ckpt.ints) {
    w.PutName(name);
    w.Put(v);
  }
  for (const auto& [name, v] : ckpt.floats) {
    w.PutName(name);
    w.Put(v);
  }
  const uint32_t crc = Crc32(w.buffer().data(), w.buffer().size());

  return WriteFileAtomically(path, [&](std::FILE* f) {
    return std::fwrite(w.buffer().data(), 1, w.buffer().size(), f) ==
               w.buffer().size() &&
           std::fwrite(&crc, sizeof(crc), 1, f) == 1;
  });
}

Result<Checkpoint> ReadCheckpoint(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IoError("seek failed: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::IoError("tell failed: " + path);
  std::rewind(f.get());
  std::vector<unsigned char> image(static_cast<size_t>(file_size));
  if (!image.empty() &&
      std::fread(image.data(), 1, image.size(), f.get()) != image.size()) {
    return Status::IoError("read failed: " + path);
  }

  // Header + trailer must fit before anything is interpreted.
  const size_t header_size = sizeof(kMagic) + 4 * sizeof(uint32_t);
  if (image.size() < header_size + sizeof(uint32_t)) {
    return Corrupt(path, "file shorter than header + CRC trailer");
  }
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a GTCP checkpoint: " + path);
  }
  const size_t body_size = image.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, image.data() + body_size, sizeof(stored_crc));
  const uint32_t actual_crc = Crc32(image.data(), body_size);
  if (stored_crc != actual_crc) {
    return Corrupt(path, "CRC mismatch (file damaged or truncated)");
  }

  Reader r(image.data(), body_size);
  char magic[4];
  uint32_t version = 0;
  uint32_t num_tensors = 0;
  uint32_t num_ints = 0;
  uint32_t num_floats = 0;
  uint32_t num_qtensors = 0;
  r.GetBytes(magic, sizeof(magic));
  if (!r.Get(&version)) {
    return Corrupt(path, "truncated version field");
  }
  if (version > kVersion) {
    return Status::IoError("checkpoint version " + std::to_string(version) +
                           " in " + path + " is newer than this build's " +
                           std::to_string(kVersion) +
                           " (refusing to guess at the format)");
  }
  if (version < 1) {
    return Status::IoError("unsupported checkpoint version in " + path);
  }
  if (!r.Get(&num_tensors) || !r.Get(&num_ints) || !r.Get(&num_floats)) {
    return Corrupt(path, "truncated section counts");
  }
  if (version >= 2 && !r.Get(&num_qtensors)) {
    return Corrupt(path, "truncated section counts");
  }

  Checkpoint ckpt;
  ckpt.tensors.reserve(num_tensors);
  for (uint32_t i = 0; i < num_tensors; ++i) {
    std::string name;
    uint32_t rank = 0;
    if (!r.GetName(&name) || !r.Get(&rank) || rank > kMaxRank) {
      return Corrupt(path, "bad tensor record header");
    }
    tensor::Shape shape(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      if (!r.Get(&shape[d]) || shape[d] < 0) {
        return Corrupt(path, "bad tensor dims for '" + name + "'");
      }
    }
    const int64_t n = tensor::NumElements(shape);
    if (static_cast<size_t>(n) * sizeof(float) > r.remaining()) {
      return Corrupt(path, "truncated payload for '" + name + "'");
    }
    tensor::Tensor t = tensor::Tensor::Uninitialized(std::move(shape));
    if (!r.GetBytes(t.data(), static_cast<size_t>(n) * sizeof(float))) {
      return Corrupt(path, "truncated payload for '" + name + "'");
    }
    ckpt.tensors.emplace_back(std::move(name), std::move(t));
  }
  ckpt.qtensors.reserve(num_qtensors);
  for (uint32_t i = 0; i < num_qtensors; ++i) {
    QuantTensor q;
    uint8_t kind = 0;
    uint32_t rank = 0;
    if (!r.GetName(&q.name) || !r.Get(&kind) ||
        kind > static_cast<uint8_t>(QuantKind::kPerCol) || !r.Get(&rank) ||
        rank > kMaxRank) {
      return Corrupt(path, "bad quantized tensor record header");
    }
    q.kind = static_cast<QuantKind>(kind);
    q.dims.resize(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      if (!r.Get(&q.dims[d]) || q.dims[d] < 0) {
        return Corrupt(path, "bad quantized dims for '" + q.name + "'");
      }
    }
    uint32_t nscales = 0;
    if (!r.Get(&q.zero_point) || !r.Get(&nscales)) {
      return Corrupt(path, "bad quantized scale header for '" + q.name + "'");
    }
    const int64_t n = q.numel();
    int64_t want_scales = 1;
    if (q.kind == QuantKind::kPerRow) {
      want_scales = q.dims.empty() ? 1 : q.dims.front();
    } else if (q.kind == QuantKind::kPerCol) {
      want_scales = q.dims.empty() ? 1 : q.dims.back();
    }
    if (nscales != static_cast<uint32_t>(want_scales)) {
      return Corrupt(path, "scale count does not match the quantization "
                           "kind for '" + q.name + "'");
    }
    if (static_cast<size_t>(nscales) * sizeof(float) +
            static_cast<size_t>(n) >
        r.remaining()) {
      return Corrupt(path, "truncated quantized payload for '" + q.name + "'");
    }
    q.scales.resize(nscales);
    q.data.resize(n);
    if (!r.GetBytes(q.scales.data(), nscales * sizeof(float)) ||
        !r.GetBytes(q.data.data(), n)) {
      return Corrupt(path, "truncated quantized payload for '" + q.name + "'");
    }
    ckpt.qtensors.push_back(std::move(q));
  }
  for (uint32_t i = 0; i < num_ints; ++i) {
    std::string name;
    int64_t v = 0;
    if (!r.GetName(&name) || !r.Get(&v)) {
      return Corrupt(path, "bad int record");
    }
    ckpt.ints.emplace_back(std::move(name), v);
  }
  for (uint32_t i = 0; i < num_floats; ++i) {
    std::string name;
    double v = 0.0;
    if (!r.GetName(&name) || !r.Get(&v)) {
      return Corrupt(path, "bad float record");
    }
    ckpt.floats.emplace_back(std::move(name), v);
  }
  if (r.remaining() != 0) {
    return Corrupt(path, "trailing bytes after last record");
  }
  return ckpt;
}

Status SaveStateDict(const nn::Module& module, const std::string& path) {
  Checkpoint ckpt;
  for (auto& [name, p] : module.NamedParameters()) {
    ckpt.tensors.emplace_back(name, p.value());
  }
  return WriteCheckpoint(path, ckpt);
}

QuantTensor QuantizeTensor(const std::string& name, const tensor::Tensor& t) {
  QuantTensor q;
  q.name = name;
  q.dims.assign(t.shape().begin(), t.shape().end());
  const int64_t n = t.numel();
  q.data.resize(n);
  if (t.ndim() == 2) {
    // Linear weights (in, out): per output column.
    q.kind = QuantKind::kPerCol;
    q.scales.resize(t.size(1));
    tensor::QuantizeColsInt8(t.data(), t.size(0), t.size(1), q.data.data(),
                             q.scales.data());
  } else if (t.ndim() >= 3) {
    // Conv-style weights (F, ...): per output filter row.
    q.kind = QuantKind::kPerRow;
    const int64_t rows = t.size(0);
    q.scales.resize(rows);
    tensor::QuantizeRowsInt8(t.data(), rows, rows > 0 ? n / rows : 0,
                             q.data.data(), q.scales.data());
  } else {
    q.kind = QuantKind::kPerTensor;
    q.scales.resize(1);
    q.scales[0] = tensor::SymmetricScale(tensor::AbsMax(t.data(), n));
    tensor::QuantizeInt8(t.data(), n, q.scales[0], q.data.data());
  }
  return q;
}

tensor::Tensor DequantizeTensor(const QuantTensor& q) {
  tensor::Shape shape(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) shape[i] = q.dims[i];
  tensor::Tensor t = tensor::Tensor::Uninitialized(std::move(shape));
  const int64_t n = q.numel();
  float* out = t.data();
  if (q.kind == QuantKind::kPerTensor) {
    const float s = q.scales[0];
    for (int64_t i = 0; i < n; ++i) out[i] = s * q.data[i];
  } else if (q.kind == QuantKind::kPerRow) {
    const int64_t rows = q.dims.front();
    const int64_t cols = rows > 0 ? n / rows : 0;
    for (int64_t r = 0; r < rows; ++r) {
      const float s = q.scales[r];
      for (int64_t c = 0; c < cols; ++c) {
        out[r * cols + c] = s * q.data[r * cols + c];
      }
    }
  } else {
    const int64_t cols = q.dims.back();
    const int64_t rows = cols > 0 ? n / cols : 0;
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        out[r * cols + c] = q.scales[c] * q.data[r * cols + c];
      }
    }
  }
  return t;
}

Status SaveQuantizedStateDict(const nn::Module& module,
                              const std::string& path) {
  Checkpoint ckpt;
  for (auto& [name, p] : module.NamedParameters()) {
    if (p.value().ndim() >= 2) {
      ckpt.qtensors.push_back(QuantizeTensor(name, p.value()));
    } else {
      ckpt.tensors.emplace_back(name, p.value());
    }
  }
  return WriteCheckpoint(path, ckpt);
}

Status ApplyStateDict(nn::Module& module, const Checkpoint& ckpt,
                      const LoadOptions& options, const std::string& prefix) {
  // Transactional: validate the WHOLE plan — every name resolution and
  // shape check, in both strict and permissive mode — before a single
  // parameter is written. A checkpoint that fails partway (unknown
  // name, shape mismatch, missing parameter) must leave the module
  // exactly as it was: the serving fleet's hot-reload contract is that
  // a failed load keeps the old model serving, and a half-applied
  // state dict would silently corrupt it. (The write pass below cannot
  // fail: everything LoadNamedParameter checks was checked here.)
  std::vector<std::pair<std::string, const tensor::Tensor*>> plan;
  std::vector<std::pair<std::string, const QuantTensor*>> qplan;
  std::set<std::string> loaded;
  const auto params = module.NamedParameters();
  auto find_param = [&params](const std::string& name)
      -> const autograd::Variable* {
    for (const auto& [pname, p] : params) {
      if (pname == name) return &p;
    }
    return nullptr;
  };
  auto check_one = [&](const std::string& name,
                       const tensor::Shape& shape) -> Result<bool> {
    const autograd::Variable* p = find_param(name);
    if (p == nullptr) {
      if (options.strict) {
        return Status::InvalidArgument(
            "state dict has unknown parameter '" + name +
            "' (strict mode; module has no such parameter)");
      }
      return false;  // permissive: skip
    }
    if (!tensor::SameShape(p->shape(), shape)) {
      return Status::InvalidArgument(
          "shape mismatch for parameter '" + name + "': module has " +
          tensor::ShapeToString(p->shape()) + ", value has " +
          tensor::ShapeToString(shape));
    }
    return true;
  };

  for (const auto& [full_name, t] : ckpt.tensors) {
    if (full_name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string name = full_name.substr(prefix.size());
    GEO_ASSIGN_OR_RETURN(const bool apply, check_one(name, t.shape()));
    if (!apply) continue;
    plan.emplace_back(name, &t);
    loaded.insert(name);
  }
  for (const QuantTensor& q : ckpt.qtensors) {
    if (q.name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string name = q.name.substr(prefix.size());
    const tensor::Shape shape(q.dims.begin(), q.dims.end());
    GEO_ASSIGN_OR_RETURN(const bool apply, check_one(name, shape));
    if (!apply) continue;
    qplan.emplace_back(name, &q);
    loaded.insert(name);
  }
  if (options.strict) {
    for (const auto& [name, p] : params) {
      if (loaded.count(name) == 0) {
        return Status::InvalidArgument(
            "state dict is missing parameter '" + name + "' (strict mode)");
      }
    }
  }

  for (const auto& [name, t] : plan) {
    Status s = module.LoadNamedParameter(name, *t);
    GEO_CHECK(s.ok()) << "validated state-dict write failed: "
                      << s.ToString();
  }
  for (const auto& [name, q] : qplan) {
    Status s = module.LoadNamedParameter(name, DequantizeTensor(*q));
    GEO_CHECK(s.ok()) << "validated state-dict write failed: "
                      << s.ToString();
  }
  return Status::OK();
}

Status LoadStateDict(nn::Module& module, const std::string& path,
                     const LoadOptions& options) {
  GEO_ASSIGN_OR_RETURN(Checkpoint ckpt, ReadCheckpoint(path));
  return ApplyStateDict(module, ckpt, options);
}

}  // namespace geotorch::io
