#include "df/csv.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/thread_pool.h"
#include "df/partition_store.h"
#include "obs/obs.h"

namespace geotorch::df {
namespace {

// Size of the read and write blocks. Both stay below glibc's 128 KiB
// mmap threshold: freeing a larger block raises malloc's dynamic mmap
// threshold, after which the multi-MB column vectors built during
// ingest stay on the heap and peak RSS grows.
constexpr size_t kBlockBytes = 64 * 1024;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// Buffers output into kBlockBytes blocks and hands each full block to
// fwrite. Numbers are formatted in place with to_chars. A failed fwrite
// is remembered; Finish() reports it along with the final flush.
class BlockWriter {
 public:
  explicit BlockWriter(std::FILE* f) : f_(f), buf_(kBlockBytes) {}

  void Put(char c) {
    if (len_ == buf_.size()) Drain();
    buf_[len_++] = c;
  }

  void Put(std::string_view s) {
    if (s.size() > buf_.size() - len_) {
      Drain();
      if (s.size() > buf_.size()) {
        ok_ = ok_ && std::fwrite(s.data(), 1, s.size(), f_) == s.size();
        return;
      }
    }
    std::memcpy(buf_.data() + len_, s.data(), s.size());
    len_ += s.size();
  }

  // `ostream << v` at its default precision prints printf's %g with 6
  // significant digits; to_chars(general, 6) produces the same bytes.
  void Put(double v) { PutNumber(v, std::chars_format::general, 6); }
  void Put(int64_t v) { PutNumber(v); }

  // Writes out what is buffered and flushes the stream; false when any
  // write since construction failed.
  bool Finish() {
    Drain();
    return ok_ && std::fflush(f_) == 0;
  }

 private:
  // Longest formatted number: "-1.23457e+308" or INT64_MIN's 20 chars.
  static constexpr size_t kMaxNumberChars = 32;

  // Appends to_chars(args...): a value, then any format arguments.
  template <typename... Args>
  void PutNumber(Args... args) {
    if (buf_.size() - len_ < kMaxNumberChars) Drain();
    char* const first = buf_.data();
    len_ = std::to_chars(first + len_, first + buf_.size(), args...).ptr -
           first;
  }

  void Drain() {
    if (len_ > 0) ok_ = ok_ && std::fwrite(buf_.data(), 1, len_, f_) == len_;
    len_ = 0;
  }

  std::FILE* f_;
  std::vector<char> buf_;
  size_t len_ = 0;
  bool ok_ = true;
};

// Reads a file in kBlockBytes blocks and yields it line by line. A line
// cut by a block boundary is carried to the front of the buffer before
// the next read; the buffer grows only when a single line fills it.
class LineReader {
 public:
  // Reads from the current position of `f`, at most `limit` bytes; the
  // buffer starts no larger than that.
  explicit LineReader(std::FILE* f,
                      int64_t limit = std::numeric_limits<int64_t>::max())
      : f_(f),
        buf_(std::clamp<int64_t>(limit, 1, kBlockBytes)),
        limit_(limit) {}

  // Sets *line to the next line, without its '\n' or a '\r' before it,
  // as a view into the buffer valid until the next call. Returns false
  // at the end of the input or on a read error (see failed()).
  bool Next(std::string_view* line) {
    for (;;) {
      const char* begin = buf_.data() + pos_;
      const size_t avail = end_ - pos_;
      const void* nl = std::memchr(begin, '\n', avail);
      size_t len = 0;
      if (nl != nullptr) {
        len = static_cast<const char*>(nl) - begin;
        pos_ += len + 1;
      } else if (eof_ && avail > 0) {
        len = avail;  // last line, no final newline
        pos_ = end_;
      } else if (eof_) {
        return false;
      } else {
        Refill();
        continue;
      }
      if (len > 0 && begin[len - 1] == '\r') --len;
      *line = std::string_view(begin, len);
      return true;
    }
  }

  bool failed() const { return std::ferror(f_) != 0; }

  // Bytes of the input taken by the lines returned so far.
  int64_t consumed() const {
    return read_ - static_cast<int64_t>(end_ - pos_);
  }

 private:
  void Refill() {
    const size_t carry = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    pos_ = 0;
    end_ = carry;
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    const size_t want = static_cast<size_t>(
        std::min<int64_t>(buf_.size() - end_, limit_ - read_));
    const size_t got = std::fread(buf_.data() + end_, 1, want, f_);
    end_ += got;
    read_ += static_cast<int64_t>(got);
    eof_ = got == 0;
  }

  std::FILE* f_;
  std::vector<char> buf_;
  const int64_t limit_;
  int64_t read_ = 0;  // bytes read from f_
  size_t pos_ = 0;    // start of the unread bytes
  size_t end_ = 0;    // end of the bytes read so far
  bool eof_ = false;
};

// Parses all of `cell` as a T; false when it is empty, malformed, out
// of range, or followed by anything else.
template <typename T>
bool ParseNumber(std::string_view cell, T* out) {
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// Parses one data row into `cols`. On error nothing guarantees how many
// columns received the row's cells; the caller discards them all.
Status ParseRow(std::string_view line, const Schema& schema,
                std::vector<Column>& cols, int64_t line_no,
                const std::string& path) {
  const auto where = [&] {
    return " at line " + std::to_string(line_no) + " of " + path;
  };
  const auto bad_cell = [&](const char* type, std::string_view cell, int c) {
    constexpr size_t kShown = 40;
    std::string shown(cell.substr(0, kShown));
    if (cell.size() > kShown) shown += "...";
    return Status::IoError(std::string("bad ") + type + " cell '" + shown +
                           "' in column '" + schema.name(c) + "'" + where());
  };
  size_t pos = 0;
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (pos > line.size()) {
      return Status::IoError("short row: " + std::to_string(c) + " of " +
                             std::to_string(schema.num_fields()) + " fields" +
                             where());
    }
    const size_t comma = line.find(',', pos);
    const size_t stop = comma == std::string_view::npos ? line.size() : comma;
    const std::string_view cell = line.substr(pos, stop - pos);
    pos = stop + 1;
    switch (schema.type(c)) {
      case DataType::kDouble: {
        double v = 0;
        if (!ParseNumber(cell, &v)) return bad_cell("double", cell, c);
        cols[c].mutable_doubles().push_back(v);
        break;
      }
      case DataType::kInt64: {
        int64_t v = 0;
        if (!ParseNumber(cell, &v)) return bad_cell("int64", cell, c);
        cols[c].mutable_int64s().push_back(v);
        break;
      }
      case DataType::kString:
        cols[c].mutable_strings().emplace_back(cell);
        break;
      case DataType::kGeometry: {
        const size_t semi = cell.find(';');
        spatial::Point p;
        if (semi == std::string_view::npos ||
            !ParseNumber(cell.substr(0, semi), &p.x) ||
            !ParseNumber(cell.substr(semi + 1), &p.y)) {
          return bad_cell("geometry", cell, c);
        }
        cols[c].mutable_points().push_back(p);
        break;
      }
    }
  }
  return Status::OK();
}

// One empty column per schema field, each with room for `rows` rows.
std::vector<Column> EmptyColumns(const Schema& schema, int64_t rows) {
  std::vector<Column> cols;
  for (int c = 0; c < schema.num_fields(); ++c) {
    Column& col = cols.emplace_back(schema.type(c));
    switch (schema.type(c)) {
      case DataType::kDouble:
        col.mutable_doubles().reserve(rows);
        break;
      case DataType::kInt64:
        col.mutable_int64s().reserve(rows);
        break;
      case DataType::kString:
        col.mutable_strings().reserve(rows);
        break;
      case DataType::kGeometry:
        col.mutable_points().reserve(rows);
        break;
    }
  }
  return cols;
}

// Parses data rows from `in` into `cols` until `max_rows` rows are in or
// the input ends, and returns how many it parsed. *line_no counts every
// line read, empty ones included.
Result<int64_t> ParseLines(LineReader& in, const Schema& schema,
                           const std::string& path, int64_t max_rows,
                           int64_t* line_no, std::vector<Column>& cols) {
  int64_t rows = 0;
  std::string_view line;
  while (rows < max_rows && in.Next(&line)) {
    ++*line_no;
    if (line.empty()) continue;
    GEO_RETURN_NOT_OK(ParseRow(line, schema, cols, *line_no, path));
    ++rows;
  }
  return rows;
}

DataFrame SinglePartition(const Schema& schema, std::vector<Column> cols) {
  std::vector<std::pair<std::string, Column>> named;
  for (int c = 0; c < schema.num_fields(); ++c) {
    named.emplace_back(schema.name(c), std::move(cols[c]));
  }
  return DataFrame::FromColumns(std::move(named));
}

// Most rows between two checkpoints of the boundary scan. A parse task
// seeks to the checkpoint at or before its first row and skips fewer
// rows than the spacing from there, and reads fewer than that past its
// last row; a spacing of at most the task's rows bounds both by them.
constexpr int64_t kCheckpointRows = 1024;

// Without a resident budget, a parse task takes consecutive partitions
// up to this many rows, so small partitions do not each pay for a task,
// an fopen and a seek.
constexpr int64_t kTaskRows = 16384;

// A data row the parse can seek to.
struct Checkpoint {
  int64_t row;      // index among the data rows
  int64_t offset;   // byte offset of the start of its line
  int64_t line_no;  // number of the line before it
};

// What the boundary scan found in one byte range of the body.
struct ScanRange {
  std::vector<Checkpoint> checkpoints;  // row and line_no within the range
  int64_t rows = 0;
  int64_t lines = 0;
  bool failed = false;
};

// Counts the lines, and the rows among them, that start in [begin, end)
// of the body, which starts at `body_start`, and keeps a checkpoint
// every `spacing` rows. The range need not start at a line: a line
// through byte begin - 1 belongs to the range before. Lines are split
// and classified by LineReader itself, so an empty or "\r"-only line
// counts as a line and not as a row, wherever its bytes fall relative
// to blocks and ranges.
ScanRange ScanBody(const std::string& path, int64_t body_start, int64_t begin,
                   int64_t end, int64_t spacing) {
  ScanRange out;
  const int64_t from = begin > body_start ? begin - 1 : begin;
  File file(std::fopen(path.c_str(), "rb"));
  if (!file || fseeko(file.get(), from, SEEK_SET) != 0) {
    out.failed = true;
    return out;
  }
  LineReader in(file.get());
  std::string_view line;
  // Drop the rest of the line through byte from (just a '\n' when
  // `begin` is a line start).
  if (from < begin && !in.Next(&line)) {
    out.failed = in.failed();
    return out;
  }
  for (int64_t offset = from + in.consumed(); offset < end && in.Next(&line);
       offset = from + in.consumed()) {
    if (!line.empty()) {
      if (out.rows % spacing == 0) {
        out.checkpoints.push_back({out.rows, offset, out.lines});
      }
      ++out.rows;
    }
    ++out.lines;
  }
  out.failed = in.failed();
  return out;
}

// Parses data rows [begin, end) into consecutive partitions of
// `rows_per_partition` rows (the last may be shorter), appended to
// *parts. Reading starts at checkpoint `from` (from.row <= begin) and
// stops short of byte `limit`, a line start at or after the end of row
// end - 1.
Status ParseRun(const std::string& path, const Schema& schema,
                const Checkpoint& from, int64_t begin, int64_t end,
                int64_t limit, int64_t rows_per_partition,
                std::vector<std::vector<Column>>* parts) {
  File file(std::fopen(path.c_str(), "rb"));
  if (!file) return Status::IoError("cannot open for read: " + path);
  if (fseeko(file.get(), from.offset, SEEK_SET) != 0) {
    return Status::IoError("read failed: " + path);
  }
  LineReader in(file.get(), limit - from.offset);
  const auto short_read = [&] {
    return Status::IoError((in.failed() ? "read failed: " : "short read: ") +
                           path);
  };
  int64_t line_no = from.line_no;
  std::string_view line;
  for (int64_t row = from.row; row < begin;) {
    if (!in.Next(&line)) return short_read();
    ++line_no;
    if (!line.empty()) ++row;
  }
  for (int64_t row = begin; row < end; row += rows_per_partition) {
    const int64_t want = std::min(rows_per_partition, end - row);
    std::vector<Column> cols = EmptyColumns(schema, want);
    GEO_ASSIGN_OR_RETURN(const int64_t got, ParseLines(in, schema, path, want,
                                                       &line_no, cols));
    if (got < want) return short_read();
    parts->push_back(std::move(cols));
  }
  return Status::OK();
}

// Reads the body of `path`, bytes [body_start, file_size), into
// partitions of `rows_per_partition` rows in two passes on the global
// pool. Pass 1 splits the body into pool-width byte ranges and counts
// each range's lines and rows, keeping checkpoints to seek to; prefix
// sums over the ranges place every checkpoint in the whole file. Pass 2
// parses runs of partitions, each from its own FILE*, starting at the
// checkpoint at or before the run's first row.
Result<DataFrame> ReadPartitioned(const std::string& path,
                                  const Schema& schema,
                                  int64_t rows_per_partition,
                                  int64_t body_start, int64_t file_size) {
  ThreadPool& pool = ThreadPool::Global();
  const int width = pool.num_threads();
  // Partitions per parse task. Under a resident budget a task parses
  // one partition, so at most `width` parsed partitions wait
  // unregistered.
  const bool budgeted =
      PartitionStore::Global().options().resident_budget_bytes <
      std::numeric_limits<int64_t>::max();
  const int64_t per_task =
      budgeted ? 1 : std::max<int64_t>(1, kTaskRows / rows_per_partition);
  std::vector<Checkpoint> checkpoints;
  int64_t total_rows = 0;
  {
    GEO_OBS_SPAN(scan_span, "df.read_csv.scan");
    const int64_t body = file_size - body_start;
    const int64_t spacing =
        std::min(rows_per_partition * per_task, kCheckpointRows);
    std::vector<ScanRange> ranges(width);
    pool.ParallelFor(width, [&](int64_t j) {
      ranges[j] = ScanBody(path, body_start, body_start + body * j / width,
                           body_start + body * (j + 1) / width, spacing);
    });
    int64_t lines = 0;
    for (const ScanRange& range : ranges) {
      if (range.failed) return Status::IoError("read failed: " + path);
      for (const Checkpoint& c : range.checkpoints) {
        checkpoints.push_back(
            {total_rows + c.row, c.offset, 1 + lines + c.line_no});
      }
      total_rows += range.rows;
      lines += range.lines;
    }
    // Sentinel: the end of the file, as the start of a row past the last.
    checkpoints.push_back({total_rows, file_size, 1 + lines});
  }
  if (total_rows == 0) return SinglePartition(schema, EmptyColumns(schema, 0));

  const auto at_or_after = [&](int64_t row) {
    return std::partition_point(
        checkpoints.begin(), checkpoints.end(),
        [row](const Checkpoint& c) { return c.row < row; });
  };
  GEO_OBS_SPAN(parse_span, "df.read_csv.parse");
  const int64_t num_parts = (total_rows - 1) / rows_per_partition + 1;
  const int64_t num_tasks = (num_parts - 1) / per_task + 1;
  std::vector<std::shared_ptr<const Partition>> partitions;
  partitions.reserve(num_parts);
  // Waves of `width` tasks. A wave's partitions are built (which
  // registers them with the PartitionStore) in index order before the
  // next wave parses, and the first failure in index order is the one
  // with the lowest line number.
  for (int64_t first = 0; first < num_tasks; first += width) {
    const int64_t n = std::min<int64_t>(width, num_tasks - first);
    std::vector<std::vector<std::vector<Column>>> runs(n);
    std::vector<Status> status(n);
    pool.ParallelFor(n, [&](int64_t k) {
      const int64_t begin = (first + k) * per_task * rows_per_partition;
      const int64_t end =
          std::min(begin + per_task * rows_per_partition, total_rows);
      auto from = at_or_after(begin);
      if (from->row > begin) --from;
      status[k] = ParseRun(path, schema, *from, begin, end,
                           at_or_after(end)->offset, rows_per_partition,
                           &runs[k]);
    });
    for (int64_t k = 0; k < n; ++k) {
      GEO_RETURN_NOT_OK(status[k]);
      for (std::vector<Column>& cols : runs[k]) {
        partitions.push_back(std::make_shared<Partition>(std::move(cols)));
      }
    }
  }
  return DataFrame::FromPartitions(std::make_shared<Schema>(schema.fields()),
                                   std::move(partitions));
}

}  // namespace

Status WriteCsv(const DataFrame& frame, const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (!file) return Status::IoError("cannot open for write: " + path);
  BlockWriter out(file.get());
  const Schema& schema = frame.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out.Put(',');
    out.Put(schema.name(c));
  }
  out.Put('\n');
  for (int pi = 0; pi < frame.num_partitions(); ++pi) {
    const Partition& part = frame.partition(pi);
    Partition::Pin pin(part);
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      for (int c = 0; c < schema.num_fields(); ++c) {
        if (c > 0) out.Put(',');
        switch (schema.type(c)) {
          case DataType::kDouble:
            out.Put(part.column(c).doubles()[r]);
            break;
          case DataType::kInt64:
            out.Put(part.column(c).int64s()[r]);
            break;
          case DataType::kString:
            out.Put(part.column(c).strings()[r]);
            break;
          case DataType::kGeometry: {
            const auto& p = part.column(c).points()[r];
            out.Put(p.x);
            out.Put(';');
            out.Put(p.y);
            break;
          }
        }
      }
      out.Put('\n');
    }
  }
  const bool written = out.Finish();
  if (std::fclose(file.release()) != 0 || !written) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

Result<DataFrame> ReadCsv(const std::string& path, const Schema& schema,
                          const CsvReadOptions& options) {
  File file(std::fopen(path.c_str(), "rb"));
  if (!file) return Status::IoError("cannot open for read: " + path);
  LineReader in(file.get());
  std::string_view line;
  if (!in.Next(&line)) {
    if (in.failed()) return Status::IoError("read failed: " + path);
    return Status::IoError("empty CSV: " + path);
  }
  if (options.rows_per_partition > 0) {
    if (fseeko(file.get(), 0, SEEK_END) != 0) {
      return Status::IoError("read failed: " + path);
    }
    const int64_t file_size = ftello(file.get());
    if (file_size < in.consumed()) {
      return Status::IoError("read failed: " + path);
    }
    return ReadPartitioned(path, schema, options.rows_per_partition,
                           in.consumed(), file_size);
  }
  std::vector<Column> cols = EmptyColumns(schema, 0);
  int64_t line_no = 1;
  GEO_RETURN_NOT_OK(ParseLines(in, schema, path,
                               std::numeric_limits<int64_t>::max(), &line_no,
                               cols)
                        .status());
  if (in.failed()) return Status::IoError("read failed: " + path);
  return SinglePartition(schema, std::move(cols));
}

}  // namespace geotorch::df
