#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/atomic_file.h"

namespace geotorch::tensor {
namespace {
constexpr char kMagic[4] = {'G', 'T', 'E', 'N'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;
}  // namespace

Status SaveTensor(const std::string& path, const Tensor& t) {
  return WriteFileAtomically(path, [&](std::FILE* f) {
    if (std::fwrite(kMagic, 1, 4, f) != 4) return false;
    const int32_t rank = t.ndim();
    if (std::fwrite(&rank, sizeof(rank), 1, f) != 1) return false;
    for (int64_t d : t.shape()) {
      if (std::fwrite(&d, sizeof(d), 1, f) != 1) return false;
    }
    const size_t n = static_cast<size_t>(t.numel());
    return n == 0 || std::fwrite(t.data(), sizeof(float), n, f) == n;
  });
}

Result<Tensor> LoadTensor(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  char magic[4];
  if (std::fread(magic, 1, 4, f.get()) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IoError("not a GTEN file: " + path);
  }
  int32_t rank = 0;
  if (std::fread(&rank, sizeof(rank), 1, f.get()) != 1 || rank < 0 ||
      rank > 16) {
    return Status::IoError("corrupt GTEN header: " + path);
  }
  Shape shape(rank);
  for (int32_t i = 0; i < rank; ++i) {
    if (std::fread(&shape[i], sizeof(int64_t), 1, f.get()) != 1 ||
        shape[i] < 0) {
      return Status::IoError("corrupt GTEN dims: " + path);
    }
  }
  const int64_t n = NumElements(shape);
  std::vector<float> values(n);
  if (n > 0 && std::fread(values.data(), sizeof(float),
                          static_cast<size_t>(n),
                          f.get()) != static_cast<size_t>(n)) {
    return Status::IoError("truncated GTEN payload: " + path);
  }
  return Tensor::FromVector(std::move(shape), std::move(values));
}

}  // namespace geotorch::tensor
