#ifndef GEOTORCH_DF_CSV_H_
#define GEOTORCH_DF_CSV_H_

#include <string>

#include "core/status.h"
#include "df/dataframe.h"

namespace geotorch::df {

/// Writes a DataFrame to CSV (header row; geometry columns as
/// "x;y"). Partitions are written in order.
///
/// Doubles are written with 6 significant digits, exactly as
/// `std::ostream <<` prints them at its default precision ("-73.9877",
/// "1e-07", "inf", "-nan"), so the round trip is lossy. Int64s are
/// exact. Strings are written raw, without quoting: a string holding
/// ',' or a newline does not read back. Returns IoError when the file
/// cannot be opened or any write, including the final flush, fails.
Status WriteCsv(const DataFrame& frame, const std::string& path);

struct CsvReadOptions {
  /// When > 0, the file is read into partitions of `rows_per_partition`
  /// rows, scanned and parsed in parallel on ThreadPool::Global().
  /// Partition i holds data rows [i*R, (i+1)*R), bitwise what a serial
  /// read gives, and partitions register with the PartitionStore in
  /// index order. Parsing runs in waves of pool width, so under a
  /// resident budget at most pool-width parsed partitions wait
  /// unregistered, and an arbitrarily large CSV ingests with bounded
  /// memory: cold partitions spill to GTDF while later ones still
  /// parse. Called from a pool worker, the read runs inline with the
  /// same result. 0 (default) reads the file on the calling thread into
  /// one partition.
  int64_t rows_per_partition = 0;
};

/// Reads a CSV produced by WriteCsv (or any headered CSV whose columns
/// match `schema` in order). With default options the result has one
/// partition; call Repartition() for parallelism, or set
/// `options.rows_per_partition` to partition (and spill) during the
/// read itself.
///
/// Accepted input. The first line is the header and is not checked.
/// Lines end in "\n" or "\r\n"; the last one may lack its newline, and
/// empty lines are skipped. A row's fields are split at ',' with no
/// quoting or escaping; fields past the schema's are ignored. Cells:
///   - double: all of the cell is one std::from_chars number (decimal or
///     scientific, "inf", "nan"); no leading '+' or whitespace, nothing
///     after the number, and a value out of double's range is an error;
///   - int64: all of the cell is a base-10 std::from_chars integer in
///     int64 range, with the same rules;
///   - string: the raw bytes between the commas, possibly empty;
///   - geometry: "x;y", two doubles as above.
/// Any other input returns IoError naming the file and line; nothing
/// throws. With several bad rows, the error names the first, whatever
/// `rows_per_partition` is.
Result<DataFrame> ReadCsv(const std::string& path, const Schema& schema,
                          const CsvReadOptions& options = {});

}  // namespace geotorch::df

#endif  // GEOTORCH_DF_CSV_H_
