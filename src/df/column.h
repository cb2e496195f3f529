#ifndef GEOTORCH_DF_COLUMN_H_
#define GEOTORCH_DF_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "spatial/geometry.h"

namespace geotorch::df {

/// Column types supported by the engine. kGeometry stores points (the
/// geometry kind the preprocessing pipeline manipulates; Sedona's
/// richer geometry types are not needed by any paper experiment).
enum class DataType {
  kDouble,
  kInt64,
  kString,
  kGeometry,
};

const char* DataTypeToString(DataType type);

/// A single cell value (used at API boundaries; bulk access goes
/// through the typed spans).
using Value = std::variant<double, int64_t, std::string, spatial::Point>;

/// A typed, contiguous column of one partition.
///
/// Two backings share one read API: an *owned* column holds its values
/// in vectors (everything the engine builds), a *view* column borrows a
/// fixed-width payload from a memory-mapped GTDF partition file and
/// keeps the mapping alive through `keepalive`. Read accessors return
/// spans so callers never see the difference; mutable accessors are
/// only legal on owned columns (views are immutable by construction).
class Column {
 public:
  explicit Column(DataType type);

  static Column FromDoubles(std::vector<double> values);
  static Column FromInt64s(std::vector<int64_t> values);
  static Column FromStrings(std::vector<std::string> values);
  static Column FromPoints(std::vector<spatial::Point> values);

  /// Zero-copy views over `n` elements at `data` (8-byte aligned, e.g.
  /// inside an mmap'ed GTDF payload). `keepalive` pins the backing
  /// bytes — typically the file mapping — for the view's lifetime.
  /// Strings have no view form; a faulted-in string column is always
  /// materialized (owned).
  static Column ViewDoubles(const double* data, int64_t n,
                            std::shared_ptr<const void> keepalive);
  static Column ViewInt64s(const int64_t* data, int64_t n,
                           std::shared_ptr<const void> keepalive);
  static Column ViewPoints(const spatial::Point* data, int64_t n,
                           std::shared_ptr<const void> keepalive);

  DataType type() const { return type_; }
  bool is_view() const { return view_ != nullptr; }
  int64_t size() const;
  /// Approximate heap footprint in bytes (for memory accounting). A
  /// view column reports the bytes of mapped payload it exposes: those
  /// pages become resident once touched, so they count against the
  /// resident budget like owned bytes do.
  int64_t ByteSize() const;

  // Typed bulk accessors; abort on type mismatch.
  std::span<const double> doubles() const;
  std::span<const int64_t> int64s() const;
  std::span<const std::string> strings() const;
  std::span<const spatial::Point> points() const;
  // Builders; abort on type mismatch or when called on a view.
  std::vector<double>& mutable_doubles();
  std::vector<int64_t>& mutable_int64s();
  std::vector<std::string>& mutable_strings();
  std::vector<spatial::Point>& mutable_points();

  /// Generic single-cell access.
  Value Get(int64_t row) const;
  void Append(const Value& v);
  /// Reserves room for `n` values (owned columns only), so a builder
  /// that knows its row count appends without regrowing.
  void Reserve(int64_t n);
  /// Appends row `row` of `other` (same type).
  void AppendFrom(const Column& other, int64_t row);

  /// Bulk row selection: a new (owned) column with rows[indices[i]]
  /// at i. The typed loop avoids per-cell dispatch on hot paths
  /// (Filter/Repartition/Join).
  Column Gather(const std::vector<int64_t>& indices) const;

 private:
  DataType type_;
  std::vector<double> doubles_;
  std::vector<int64_t> int64s_;
  std::vector<std::string> strings_;
  std::vector<spatial::Point> points_;
  // View backing (fixed-width types only).
  const void* view_ = nullptr;
  int64_t view_size_ = 0;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace geotorch::df

#endif  // GEOTORCH_DF_COLUMN_H_
