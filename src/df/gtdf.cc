#include "df/gtdf.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "core/atomic_file.h"
#include "core/check.h"
#include "io/crc32.h"

namespace geotorch::df {
namespace {

constexpr char kMagic[4] = {'G', 'T', 'D', 'F'};
// Sanity bounds: a directory that claims more than this is corrupt,
// not merely large (partitions are horizontal slices, not warehouses).
constexpr uint32_t kMaxColumns = 65536;
constexpr int64_t kMaxRows = int64_t{1} << 40;

constexpr size_t kHeaderSize =
    sizeof(kMagic) + 2 * sizeof(uint32_t) + sizeof(int64_t);
constexpr size_t kDirEntrySize = 1 + 2 * sizeof(uint64_t);

// Geometry payloads are reinterpret_cast straight out of the file
// image, so the in-memory Point layout IS the on-disk layout.
static_assert(std::is_trivially_copyable_v<spatial::Point> &&
                  sizeof(spatial::Point) == 2 * sizeof(double),
              "GTDF geometry payload requires Point == {f64 x, f64 y}");

size_t AlignUp8(size_t n) { return (n + 7) & ~size_t{7}; }

int64_t FixedElemSize(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return sizeof(double);
    case DataType::kInt64:
      return sizeof(int64_t);
    case DataType::kGeometry:
      return sizeof(spatial::Point);
    case DataType::kString:
      return 0;
  }
  return 0;
}

// Streams bytes to a file while chaining the CRC over everything
// written, so spilling never buffers a second copy of the partition.
class CrcFile {
 public:
  explicit CrcFile(std::FILE* f) : f_(f) {}
  void Write(const void* p, size_t n) {
    if (!ok_ || n == 0) return;
    if (std::fwrite(p, 1, n, f_) != n) {
      ok_ = false;
      return;
    }
    crc_ = io::Crc32(p, n, crc_);
  }
  template <typename T>
  void Put(const T& v) {
    Write(&v, sizeof(T));
  }
  void Pad(size_t n) {
    static const unsigned char zeros[8] = {};
    GEO_CHECK_LE(n, sizeof(zeros));
    Write(zeros, n);
  }
  bool ok() const { return ok_; }
  uint32_t crc() const { return crc_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = 0;
  bool ok_ = true;
};

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IoError("corrupt GTDF partition " + path + ": " + what);
}

// The file image a faulted-in partition's view columns borrow from:
// an mmap when the platform grants one, a plain heap buffer read with
// positioned reads otherwise. Destroyed when the last view column of
// the partition is dropped (the columns hold it as their keepalive).
class FileImage {
 public:
  ~FileImage() {
    if (map_base_ != nullptr) ::munmap(map_base_, map_size_);
  }
  FileImage(const FileImage&) = delete;
  FileImage& operator=(const FileImage&) = delete;

  static Result<std::shared_ptr<FileImage>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IoError("cannot open for read: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::IoError("cannot stat: " + path);
    }
    auto image = std::shared_ptr<FileImage>(new FileImage());
    image->size_ = static_cast<size_t>(st.st_size);
    if (image->size_ > 0) {
      void* base = ::mmap(nullptr, image->size_, PROT_READ, MAP_PRIVATE, fd,
                          0);
      if (base != MAP_FAILED) {
        image->map_base_ = base;
        image->map_size_ = image->size_;
        image->data_ = static_cast<const unsigned char*>(base);
      } else {
        // pread fallback: same bytes, same spans, just not demand-paged.
        image->heap_.resize(image->size_);
        size_t done = 0;
        while (done < image->size_) {
          const ssize_t n =
              ::pread(fd, image->heap_.data() + done, image->size_ - done,
                      static_cast<off_t>(done));
          if (n <= 0) {
            ::close(fd);
            return Status::IoError("read failed: " + path);
          }
          done += static_cast<size_t>(n);
        }
        image->data_ = image->heap_.data();
      }
    }
    ::close(fd);
    return image;
  }

  const unsigned char* data() const { return data_; }
  size_t size() const { return size_; }
  bool mapped() const { return map_base_ != nullptr; }

 private:
  FileImage() = default;

  const unsigned char* data_ = nullptr;
  size_t size_ = 0;
  void* map_base_ = nullptr;
  size_t map_size_ = 0;
  std::vector<unsigned char> heap_;
};

}  // namespace

Status WriteGtdf(const std::string& path,
                 const std::vector<std::shared_ptr<const Column>>& columns,
                 int64_t num_rows) {
  GEO_CHECK_LE(columns.size(), static_cast<size_t>(kMaxColumns));
  // Directory first: payload offsets are known before any byte lands.
  struct Entry {
    uint8_t type;
    uint64_t offset;
    uint64_t size;
  };
  std::vector<Entry> dir(columns.size());
  size_t at = AlignUp8(kHeaderSize + columns.size() * kDirEntrySize);
  for (size_t c = 0; c < columns.size(); ++c) {
    const Column& col = *columns[c];
    GEO_CHECK_EQ(col.size(), num_rows) << "ragged partition in WriteGtdf";
    uint64_t payload;
    if (col.type() == DataType::kString) {
      uint64_t blob = 0;
      for (const auto& s : col.strings()) blob += s.size();
      payload = (static_cast<uint64_t>(num_rows) + 1) * sizeof(uint64_t) +
                blob;
    } else {
      payload = static_cast<uint64_t>(num_rows) *
                static_cast<uint64_t>(FixedElemSize(col.type()));
    }
    dir[c] = {static_cast<uint8_t>(col.type()), at, payload};
    at = AlignUp8(at + payload);
  }

  return WriteFileAtomically(path, [&](std::FILE* f) {
    CrcFile out(f);
    out.Write(kMagic, sizeof(kMagic));
    out.Put(kGtdfVersion);
    out.Put(static_cast<uint32_t>(columns.size()));
    out.Put(num_rows);
    for (const Entry& e : dir) {
      out.Put(e.type);
      out.Put(e.offset);
      out.Put(e.size);
    }
    size_t written = kHeaderSize + columns.size() * kDirEntrySize;
    for (size_t c = 0; c < columns.size(); ++c) {
      out.Pad(dir[c].offset - written);
      const Column& col = *columns[c];
      switch (col.type()) {
        case DataType::kDouble: {
          const auto v = col.doubles();
          out.Write(v.data(), v.size() * sizeof(double));
          break;
        }
        case DataType::kInt64: {
          const auto v = col.int64s();
          out.Write(v.data(), v.size() * sizeof(int64_t));
          break;
        }
        case DataType::kGeometry: {
          const auto v = col.points();
          out.Write(v.data(), v.size() * sizeof(spatial::Point));
          break;
        }
        case DataType::kString: {
          const auto v = col.strings();
          std::vector<uint64_t> offsets;
          offsets.reserve(v.size() + 1);
          uint64_t off = 0;
          offsets.push_back(off);
          for (const auto& s : v) {
            off += s.size();
            offsets.push_back(off);
          }
          out.Write(offsets.data(), offsets.size() * sizeof(uint64_t));
          for (const auto& s : v) out.Write(s.data(), s.size());
          break;
        }
      }
      written = dir[c].offset + dir[c].size;
    }
    const uint32_t crc = out.crc();
    out.Put(crc);
    return out.ok();
  });
}

Result<GtdfPartition> ReadGtdf(const std::string& path) {
  std::shared_ptr<FileImage> image;
  {
    auto opened = FileImage::Open(path);
    if (!opened.ok()) return opened.status();
    image = std::move(opened).ValueOrDie();
  }
  const unsigned char* data = image->data();
  const size_t size = image->size();
  if (size < kHeaderSize + sizeof(uint32_t)) {
    return Corrupt(path, "file shorter than header + CRC trailer");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a GTDF partition: " + path);
  }
  // CRC over everything before the trailer, validated before any field
  // beyond the magic is interpreted.
  const size_t body_size = size - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data + body_size, sizeof(stored_crc));
  if (stored_crc != io::Crc32(data, body_size)) {
    return Corrupt(path, "CRC mismatch (file damaged or truncated)");
  }

  uint32_t version = 0;
  uint32_t num_columns = 0;
  int64_t num_rows = 0;
  std::memcpy(&version, data + 4, sizeof(version));
  std::memcpy(&num_columns, data + 8, sizeof(num_columns));
  std::memcpy(&num_rows, data + 12, sizeof(num_rows));
  if (version == 0 || version > kGtdfVersion) {
    return Status::InvalidArgument(
        "GTDF version " + std::to_string(version) + " not supported (max " +
        std::to_string(kGtdfVersion) + "): " + path);
  }
  if (num_columns > kMaxColumns) return Corrupt(path, "column count");
  if (num_rows < 0 || num_rows > kMaxRows) return Corrupt(path, "row count");
  const size_t dir_end = kHeaderSize + num_columns * kDirEntrySize;
  if (dir_end > body_size) return Corrupt(path, "directory truncated");

  GtdfPartition out;
  out.num_rows = num_rows;
  out.via_mmap = image->mapped();
  out.columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    const unsigned char* e = data + kHeaderSize + c * kDirEntrySize;
    const uint8_t raw_type = *e;
    uint64_t offset = 0;
    uint64_t payload = 0;
    std::memcpy(&offset, e + 1, sizeof(offset));
    std::memcpy(&payload, e + 9, sizeof(payload));
    if (raw_type > static_cast<uint8_t>(DataType::kGeometry)) {
      return Corrupt(path, "unknown column type");
    }
    const DataType type = static_cast<DataType>(raw_type);
    if (offset % 8 != 0 || offset < dir_end || offset > body_size ||
        payload > body_size - offset) {
      return Corrupt(path, "column payload out of bounds");
    }
    const unsigned char* p = data + offset;
    if (type == DataType::kString) {
      const uint64_t offsets_bytes =
          (static_cast<uint64_t>(num_rows) + 1) * sizeof(uint64_t);
      if (payload < offsets_bytes) {
        return Corrupt(path, "string offsets truncated");
      }
      const uint64_t blob_size = payload - offsets_bytes;
      const unsigned char* blob = p + offsets_bytes;
      std::vector<std::string> values;
      values.reserve(num_rows);
      uint64_t prev = 0;
      std::memcpy(&prev, p, sizeof(prev));
      if (prev != 0) return Corrupt(path, "string offsets must start at 0");
      for (int64_t r = 0; r < num_rows; ++r) {
        uint64_t next = 0;
        std::memcpy(&next, p + (r + 1) * sizeof(uint64_t), sizeof(next));
        if (next < prev || next > blob_size) {
          return Corrupt(path, "non-monotonic string offsets");
        }
        values.emplace_back(reinterpret_cast<const char*>(blob) + prev,
                            next - prev);
        prev = next;
      }
      out.columns.push_back(Column::FromStrings(std::move(values)));
    } else {
      const uint64_t expect = static_cast<uint64_t>(num_rows) *
                              static_cast<uint64_t>(FixedElemSize(type));
      if (payload != expect) return Corrupt(path, "column payload size");
      switch (type) {
        case DataType::kDouble:
          out.columns.push_back(Column::ViewDoubles(
              reinterpret_cast<const double*>(p), num_rows, image));
          break;
        case DataType::kInt64:
          out.columns.push_back(Column::ViewInt64s(
              reinterpret_cast<const int64_t*>(p), num_rows, image));
          break;
        case DataType::kGeometry:
          out.columns.push_back(Column::ViewPoints(
              reinterpret_cast<const spatial::Point*>(p), num_rows, image));
          break;
        case DataType::kString:
          break;  // handled above
      }
    }
  }
  return out;
}

}  // namespace geotorch::df
