#include "core/atomic_file.h"

#include <unistd.h>

#include <atomic>
#include <cstdint>

namespace geotorch {

Status WriteFileAtomically(const std::string& path,
                           const std::function<bool(std::FILE*)>& write) {
  static std::atomic<uint64_t> temp_counter{0};
  const std::string temp = path + ".tmp." + std::to_string(getpid()) + "." +
                           std::to_string(temp_counter.fetch_add(1));
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for write: " + temp);
  const bool written = write(f) && std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::remove(temp.c_str());
    return Status::IoError("write failed: " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::IoError("cannot rename " + temp + " to " + path);
  }
  return Status::OK();
}

}  // namespace geotorch
