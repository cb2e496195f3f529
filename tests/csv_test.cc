#include "df/csv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "df/partition_store.h"
#include "synth/taxi.h"
#include "tests/temp_path.h"

namespace geotorch::df {
namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Schema MixedSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"name", DataType::kString},
                 {"pt", DataType::kGeometry}});
}

const char kHeader[] = "id,v,name,pt\n";

// Each row of `part` as bytes: doubles and points by their bits, so NaN
// payloads and signed zeros compare too.
std::vector<std::string> RowBytes(const Partition& part) {
  std::vector<std::string> rows(part.num_rows());
  const auto put = [](std::string& out, const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (int c = 0; c < part.num_columns(); ++c) {
    const Column& col = part.column(c);
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      switch (part.column_type(c)) {
        case DataType::kDouble:
          put(rows[r], &col.doubles()[r], sizeof(double));
          break;
        case DataType::kInt64:
          put(rows[r], &col.int64s()[r], sizeof(int64_t));
          break;
        case DataType::kString: {
          const std::string& v = col.strings()[r];
          rows[r] += std::to_string(v.size()) + ':' + v;
          break;
        }
        case DataType::kGeometry:
          put(rows[r], &col.points()[r], sizeof(spatial::Point));
          break;
      }
    }
  }
  return rows;
}

std::vector<std::string> RowBytes(const DataFrame& frame) {
  std::vector<std::string> rows;
  for (int pi = 0; pi < frame.num_partitions(); ++pi) {
    for (std::string& row : RowBytes(frame.partition(pi))) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// Gives the PartitionStore a finite budget far above what these tests
// hold: nothing spills, but a partitioned read then parses one
// partition per pool task instead of runs of small partitions.
class ScopedFiniteBudget {
 public:
  ScopedFiniteBudget() : saved_(PartitionStore::Global().options()) {
    PartitionStore::Options opts = saved_;
    opts.resident_budget_bytes = int64_t{1} << 40;
    PartitionStore::Global().Configure(opts);
  }
  ~ScopedFiniteBudget() { PartitionStore::Global().Configure(saved_); }

 private:
  PartitionStore::Options saved_;
};

// Reads `path` serially (rows_per_partition 0) and partitioned on the
// pool (rows_per_partition 2); both must fail with the same Status or
// both succeed with the same rows. Returns the serial result.
Result<DataFrame> ReadBothWays(const std::string& path,
                               const std::string& label) {
  Result<DataFrame> serial = DataFrame();
  Result<DataFrame> chunked = DataFrame();
  CsvReadOptions opts;
  opts.rows_per_partition = 2;
  EXPECT_NO_THROW(serial = ReadCsv(path, MixedSchema())) << label;
  EXPECT_NO_THROW(chunked = ReadCsv(path, MixedSchema(), opts)) << label;
  EXPECT_EQ(serial.ok(), chunked.ok()) << label;
  if (!serial.ok() || !chunked.ok()) {
    EXPECT_EQ(serial.status().ToString(), chunked.status().ToString())
        << label;
  } else {
    EXPECT_EQ(RowBytes(*serial), RowBytes(*chunked)) << label;
  }
  return serial;
}

// -------------------------------------------------- malformed input

struct BadCase {
  const char* label;
  std::string body;    // data rows after the header
  int64_t error_line;  // line the error must name
};

TEST(CsvReadTest, MalformedCellsFailWithLineNumber) {
  const std::vector<BadCase> cases = {
      {"non-numeric double", "1,abc,x,1;2\n", 2},
      {"non-numeric int64", "one,1.5,x,1;2\n", 2},
      {"trailing garbage double", "1,1.5abc,x,1;2\n", 2},
      {"trailing garbage int64", "7x,1.5,x,1;2\n", 2},
      {"int64 overflow", "9223372036854775808,1.5,x,1;2\n", 2},
      {"int64 underflow", "-9223372036854775809,1.5,x,1;2\n", 2},
      {"double overflow", "1,1e400,x,1;2\n", 2},
      {"empty double", "1,,x,1;2\n", 2},
      {"empty int64", ",1.5,x,1;2\n", 2},
      {"geometry without ';'", "1,1.5,x,12\n", 2},
      {"geometry empty y", "1,1.5,x,1;\n", 2},
      {"geometry empty x", "1,1.5,x,;2\n", 2},
      {"geometry trailing garbage", "1,1.5,x,1;2;3\n", 2},
      {"short row", "1,1.5\n", 2},
      {"short row, one field", "1\n", 2},
      {"leading '+'", "+1,1.5,x,1;2\n", 2},
      {"leading space", "1, 1.5,x,1;2\n", 2},
      {"hex", "1,0x10,x,1;2\n", 2},
      {"error after good and empty lines", "1,1.5,x,1;2\n\n3,oops,y,3;4\n", 4},
      {"error on unterminated last line", "1,1.5,x,1;2\n2,2.5,y,bad", 3},
  };
  const ScopedTempPath path("csv_test_malformed.csv");
  for (const BadCase& bc : cases) {
    WriteFile(path, kHeader + bc.body);
    Result<DataFrame> r = ReadBothWays(path, bc.label);
    ASSERT_FALSE(r.ok()) << bc.label;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << bc.label;
    const std::string line = "line " + std::to_string(bc.error_line) + " ";
    EXPECT_NE(r.status().message().find(line), std::string::npos)
        << bc.label << ": " << r.status().message();
  }
}

TEST(CsvReadTest, EmptyFileFails) {
  const ScopedTempPath path("csv_test_empty.csv");
  WriteFile(path, "");
  Result<DataFrame> r = ReadCsv(path, MixedSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvReadTest, MissingFileFails) {
  Result<DataFrame> r =
      ReadCsv(testing::TempDir() + "/csv_test_no_such_file.csv", MixedSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvReadTest, HeaderOnlyGivesEmptyFrame) {
  const ScopedTempPath path("csv_test_header_only.csv");
  for (const std::string bytes : {"id,v,name,pt\n", "id,v,name,pt"}) {
    WriteFile(path, bytes);
    Result<DataFrame> r = ReadCsv(path, MixedSchema());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->NumRows(), 0);
    EXPECT_EQ(r->schema().num_fields(), 4);
  }
}

// ---------------------------------------------- accepted variations

void ExpectTwoRows(const DataFrame& frame) {
  ASSERT_EQ(frame.NumRows(), 2);
  EXPECT_EQ(frame.CollectInt64("id"), (std::vector<int64_t>{1, -2}));
  EXPECT_EQ(frame.CollectDouble("v"), (std::vector<double>{1.5, -2.25}));
  const Partition& part = frame.partition(0);
  EXPECT_EQ(part.column(2).strings()[0], "a");
  EXPECT_EQ(part.column(2).strings()[1], "b");
  EXPECT_EQ(part.column(3).points()[1].x, -73.5);
  EXPECT_EQ(part.column(3).points()[1].y, 40.75);
}

TEST(CsvReadTest, CrlfLineEndings) {
  const ScopedTempPath path("csv_test_crlf.csv");
  WriteFile(path,
            "id,v,name,pt\r\n1,1.5,a,1;2\r\n\r\n-2,-2.25,b,-73.5;40.75\r\n");
  Result<DataFrame> r = ReadCsv(path, MixedSchema());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectTwoRows(*r);
}

TEST(CsvReadTest, MissingFinalNewline) {
  const ScopedTempPath path("csv_test_no_final_newline.csv");
  WriteFile(path, "id,v,name,pt\n1,1.5,a,1;2\n-2,-2.25,b,-73.5;40.75");
  Result<DataFrame> r = ReadCsv(path, MixedSchema());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectTwoRows(*r);
}

TEST(CsvReadTest, ExtraTrailingFieldsIgnored) {
  const ScopedTempPath path("csv_test_extra_fields.csv");
  WriteFile(path,
            "id,v,name,pt,extra\n1,1.5,a,1;2,zzz\n-2,-2.25,b,-73.5;40.75,,\n");
  Result<DataFrame> r = ReadCsv(path, MixedSchema());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectTwoRows(*r);
}

TEST(CsvReadTest, SpecialDoubles) {
  const ScopedTempPath path("csv_test_special.csv");
  WriteFile(path, "v\ninf\n-inf\nnan\n-0\n4.94066e-324\n1e-07\n");
  Result<DataFrame> r = ReadCsv(path, Schema({{"v", DataType::kDouble}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<double> v = r->CollectDouble("v");
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0], std::numeric_limits<double>::infinity());
  EXPECT_EQ(v[1], -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(v[2]));
  EXPECT_TRUE(v[3] == 0.0 && std::signbit(v[3]));
  EXPECT_GT(v[4], 0.0);
  EXPECT_EQ(v[5], 1e-7);
}

TEST(CsvReadTest, LineLongerThanReadBuffer) {
  const ScopedTempPath path("csv_test_long_line.csv");
  const std::string big((1 << 20) + 12345, 'q');
  WriteFile(path, std::string(kHeader) + "1,1.5,a,1;2\n-2,-2.25," + big +
                      ",-73.5;40.75\n3,3.5,c,5;6\n");
  CsvReadOptions opts;
  opts.rows_per_partition = 2;
  Result<DataFrame> r = ReadCsv(path, MixedSchema(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->NumRows(), 3);
  ASSERT_EQ(r->num_partitions(), 2);
  EXPECT_EQ(r->CollectInt64("id"), (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(r->partition(0).column(2).strings()[1], big);
  EXPECT_EQ(r->partition(1).column(3).points()[0].y, 6.0);
}

// ------------------------------------------ truncation / substitution

// A small CSV with every column type; its mutations must each produce
// either a frame or a Status, never a throw or a crash.
std::string SmallMixedCsv() {
  return "id,v,name,pt\n"
         "1,1.5,alpha,-73.98765;40.7\n"
         "-22,-2e-07,b,1e+20;-0\n"
         "\n"
         "333,inf,,0.5;1\r\n"
         "4,nan,dd,7;8";
}

void ExpectFrameOrStatus(const std::string& path, const std::string& label) {
  Result<DataFrame> r = ReadBothWays(path, label);
  if (!r.ok()) return;
  const int64_t rows = r->NumRows();
  EXPECT_LE(rows, 4) << label;
  for (int pi = 0; pi < r->num_partitions(); ++pi) {
    const Partition& part = r->partition(pi);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(part.column(c).size(), part.num_rows()) << label;
    }
  }
}

TEST(CsvReadTest, EveryPrefixTruncation) {
  const std::string csv = SmallMixedCsv();
  const ScopedTempPath path("csv_test_prefix.csv");
  for (size_t n = 0; n <= csv.size(); ++n) {
    WriteFile(path, csv.substr(0, n));
    ExpectFrameOrStatus(path, "prefix " + std::to_string(n));
  }
  // The untouched file parses in full.
  Result<DataFrame> r = ReadBothWays(path, "whole file");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->NumRows(), 4);
}

TEST(CsvReadTest, EverySingleByteSubstitution) {
  const std::string csv = SmallMixedCsv();
  const ScopedTempPath path("csv_test_substitution.csv");
  for (size_t i = 0; i < csv.size(); ++i) {
    for (int b = 0; b < 256; ++b) {
      if (static_cast<unsigned char>(csv[i]) == b) continue;
      std::string mutated = csv;
      mutated[i] = static_cast<char>(b);
      WriteFile(path, mutated);
      ExpectFrameOrStatus(path, "byte " + std::to_string(i) + " := " +
                                    std::to_string(b));
      if (HasFailure()) return;
    }
  }
}

// ------------------------------------------------ partitioned read

// Rows with CRLF and LF endings, empty and "\r"-only lines between them,
// and `tail` after the last newline. `pad` widens the first row, so a
// sweep of pads moves where the pool's byte ranges start across the
// rows, into "\r\n" pairs too.
std::string RaggedCsv(size_t pad, const std::string& tail) {
  std::string csv = "id,v,name,pt\r\n";
  for (int i = 0; i < 12; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i) + ".5," +
           (i == 0 ? std::string(pad, 'p') : "n" + std::to_string(i)) +
           "," + std::to_string(i) + ";-" + std::to_string(i);
    csv += i % 3 == 0 ? "\r\n" : "\n";
    if (i % 4 == 1) csv += "\r\n";  // a "\r"-only line
    if (i % 5 == 2) csv += "\n";     // an empty line
  }
  return csv + tail;
}

TEST(CsvPartitionedReadTest, PartitionsHoldTheSerialRowsInOrder) {
  const ScopedTempPath path("csv_test_ragged.csv");
  const int width = ThreadPool::Global().num_threads();
  int crlf_splits = 0;
  for (const std::string tail : {"", "\r", "\r\n", "12,12.5,t,12;-12",
                                 "12,12.5,t,12;-12\r"}) {
    for (size_t pad = 0; pad < 48; ++pad) {
      const std::string csv = RaggedCsv(pad, tail);
      WriteFile(path, csv);
      // Where ReadCsv's boundary scan starts its byte ranges.
      const size_t body_start = csv.find('\n') + 1;
      const size_t body = csv.size() - body_start;
      for (int j = 1; j < width; ++j) {
        const size_t at = body_start + body * j / width;
        crlf_splits += csv[at - 1] == '\r' && csv[at] == '\n';
      }
      Result<DataFrame> serial = ReadCsv(path, MixedSchema());
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      const std::vector<std::string> want = RowBytes(*serial);
      const int64_t rows = static_cast<int64_t>(want.size());
      ASSERT_EQ(rows, tail.size() > 2 ? 13 : 12);
      for (const bool budgeted : {false, true}) {
        std::optional<ScopedFiniteBudget> budget;
        if (budgeted) budget.emplace();
        for (int64_t r = 1; r <= 5; ++r) {
          const std::string label =
              "pad " + std::to_string(pad) + " tail " +
              std::to_string(tail.size()) + " R " + std::to_string(r) +
              (budgeted ? " budgeted" : "");
          CsvReadOptions opts;
          opts.rows_per_partition = r;
          Result<DataFrame> got = ReadCsv(path, MixedSchema(), opts);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          ASSERT_EQ(got->num_partitions(), (rows + r - 1) / r) << label;
          for (int i = 0; i < got->num_partitions(); ++i) {
            const std::vector<std::string> slice(
                want.begin() + i * r,
                want.begin() + std::min(rows, (i + 1) * r));
            EXPECT_EQ(RowBytes(got->partition(i)), slice)
                << label << " part " << i;
          }
        }
      }
    }
  }
  if (width > 1) {
    EXPECT_GT(crlf_splits, 0);
  }
}

TEST(CsvPartitionedReadTest, ErrorNamesTheLowestFailingLine) {
  std::string body;
  for (int i = 0; i < 40; ++i) {
    body += i == 17 || i == 31 ? "1,bad,x,1;2\n" : "1,1.5,x,1;2\r\n\n";
  }
  const ScopedTempPath path("csv_test_two_errors.csv");
  WriteFile(path, kHeader + body);
  for (const bool budgeted : {false, true}) {
    std::optional<ScopedFiniteBudget> budget;
    if (budgeted) budget.emplace();
    for (int64_t r : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{8},
                      int64_t{16}, int64_t{100},
                      std::numeric_limits<int64_t>::max()}) {
      CsvReadOptions opts;
      opts.rows_per_partition = r;
      Result<DataFrame> got = ReadCsv(path, MixedSchema(), opts);
      ASSERT_FALSE(got.ok()) << r;
      EXPECT_EQ(got.status().message(),
                "bad double cell 'bad' in column 'v' at line 36 of " +
                    path.str())
          << r << (budgeted ? " budgeted" : "");
    }
  }
}

TEST(CsvPartitionedReadTest, HeaderOnlyGivesOneEmptyPartition) {
  const ScopedTempPath path("csv_test_header_only_partitioned.csv");
  for (const std::string bytes : {"id,v,name,pt\n", "id,v,name,pt",
                                  "id,v,name,pt\n\r\n\n\r"}) {
    WriteFile(path, bytes);
    CsvReadOptions opts;
    opts.rows_per_partition = 3;
    Result<DataFrame> r = ReadCsv(path, MixedSchema(), opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_partitions(), 1);
    EXPECT_EQ(r->NumRows(), 0);
    EXPECT_EQ(r->schema().num_fields(), 4);
  }
}

// From inside a pool task the read runs inline, with the same result.
TEST(CsvPartitionedReadTest, ReadFromPoolTaskMatches) {
  const ScopedTempPath path("csv_test_from_pool.csv");
  WriteFile(path, RaggedCsv(5, "12,12.5,t,12;-12"));
  CsvReadOptions opts;
  opts.rows_per_partition = 4;
  Result<DataFrame> outside = ReadCsv(path, MixedSchema(), opts);
  ASSERT_TRUE(outside.ok()) << outside.status().ToString();
  Result<DataFrame> inside = DataFrame();
  ThreadPool::Global()
      .Submit([&] { inside = ReadCsv(path, MixedSchema(), opts); })
      .get();
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  ASSERT_EQ(inside->num_partitions(), outside->num_partitions());
  for (int i = 0; i < outside->num_partitions(); ++i) {
    EXPECT_EQ(RowBytes(inside->partition(i)), RowBytes(outside->partition(i)));
  }
}

// ------------------------------------------------------------ writer

TEST(CsvWriteTest, DevFullReportsIoError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  DataFrame frame =
      DataFrame::FromColumns({{"id", Column::FromInt64s({1, 2, 3})}});
  const Status st = WriteCsv(frame, "/dev/full");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(CsvWriteTest, UnwritablePathReportsIoError) {
  DataFrame frame = DataFrame::FromColumns({{"id", Column::FromInt64s({1})}});
  const Status st = WriteCsv(
      frame, testing::TempDir() + "/csv_test_no_such_dir/out.csv");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

// The written bytes are exactly what `std::ostream <<` prints at its
// default precision, so files match those of earlier releases.
TEST(CsvWriteTest, BytesMatchOstream) {
  const std::vector<double> doubles = {
      0.0,       -0.0,      1e-7,       1e20,      -73.98765,
      40.712345, 42.0,      -1.0,       1e6,       123456789.0,
      0.0001,    1.0 / 3.0, 5e-324,     2.5e-310,  1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  std::vector<int64_t> ints;
  std::vector<std::string> strings;
  std::vector<spatial::Point> points;
  for (size_t i = 0; i < doubles.size(); ++i) {
    ints.push_back(i % 3 == 0   ? std::numeric_limits<int64_t>::min()
                   : i % 3 == 1 ? std::numeric_limits<int64_t>::max()
                                : static_cast<int64_t>(i) - 10);
    strings.push_back(std::string(i, 's'));
    points.push_back({doubles[i], doubles[doubles.size() - 1 - i]});
  }
  DataFrame frame = DataFrame::FromColumns({{"d", Column::FromDoubles(doubles)},
                                            {"i", Column::FromInt64s(ints)},
                                            {"s", Column::FromStrings(strings)},
                                            {"p", Column::FromPoints(points)}});
  std::ostringstream want;
  want << "d,i,s,p\n";
  for (size_t i = 0; i < doubles.size(); ++i) {
    want << doubles[i] << ',' << ints[i] << ',' << strings[i] << ','
         << points[i].x << ';' << points[i].y << '\n';
  }
  const ScopedTempPath path("csv_test_golden.csv");
  ASSERT_TRUE(WriteCsv(frame, path).ok());
  EXPECT_EQ(ReadFile(path), want.str());
}

// Splits `line` at commas (the writer never quotes).
std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// On 100k synthetic taxi trips, what ReadCsv parses is bitwise what the
// C library parses from each written cell.
TEST(CsvRoundTripTest, TaxiColumnsMatchStrtod) {
  synth::TaxiTripConfig config;
  config.num_records = 100000;
  config.seed = 11;
  const DataFrame frame =
      synth::TripsToDataFrame(synth::GenerateTaxiTrips(config), 4);
  const ScopedTempPath path("csv_test_taxi.csv");
  ASSERT_TRUE(WriteCsv(frame, path).ok());
  CsvReadOptions opts;
  opts.rows_per_partition = 30000;
  Result<DataFrame> read = ReadCsv(path, frame.schema(), opts);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->NumRows(), config.num_records);
  EXPECT_EQ(read->num_partitions(), 4);

  const Schema& schema = frame.schema();
  std::vector<std::vector<double>> doubles(schema.num_fields());
  std::vector<std::vector<int64_t>> ints(schema.num_fields());
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (schema.type(c) == DataType::kDouble) {
      doubles[c] = read->CollectDouble(schema.name(c));
    } else {
      ASSERT_EQ(schema.type(c), DataType::kInt64);
      ints[c] = read->CollectInt64(schema.name(c));
    }
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  int64_t row = 0;
  int64_t mismatches = 0;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = SplitCells(line);
    ASSERT_EQ(cells.size(), static_cast<size_t>(schema.num_fields()));
    for (int c = 0; c < schema.num_fields(); ++c) {
      errno = 0;
      if (schema.type(c) == DataType::kDouble) {
        const double want = std::strtod(cells[c].c_str(), nullptr);
        mismatches += Bits(want) != Bits(doubles[c][row]);
      } else {
        const int64_t want = std::strtoll(cells[c].c_str(), nullptr, 10);
        mismatches += want != ints[c][row];
      }
      EXPECT_EQ(errno, 0) << "row " << row << " column " << c;
    }
    ++row;
  }
  EXPECT_EQ(row, config.num_records);
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace geotorch::df
