#ifndef GEOTORCH_DF_DATAFRAME_H_
#define GEOTORCH_DF_DATAFRAME_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/memory.h"
#include "core/status.h"
#include "df/column.h"

namespace geotorch::df {

/// Ordered (name, type) field list of a DataFrame.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::pair<std::string, DataType>> fields);

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const std::string& name(int i) const { return fields_[i].first; }
  DataType type(int i) const { return fields_[i].second; }

  /// Index of `name`; aborts when absent (schema errors are bugs).
  int FieldIndex(const std::string& name) const;
  bool HasField(const std::string& name) const;

  const std::vector<std::pair<std::string, DataType>>& fields() const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, DataType>> fields_;
};

/// A reference-counted immutable column whose heap footprint is
/// registered with the global MemoryTracker for exactly as long as the
/// storage lives. Transformations that keep a column (Select,
/// WithColumn, Drop) share the pointer instead of copying the data —
/// the structural sharing a columnar engine relies on.
using SharedColumn = std::shared_ptr<const Column>;

/// Wraps a freshly built column, accounting its bytes until the last
/// reference drops.
SharedColumn TrackColumn(Column column);

class PartitionStore;

/// One horizontal slice of a DataFrame — the unit of parallel work, the
/// analogue of a Spark partition living on one executor. Columns are
/// immutable and may be shared with other partitions/frames.
///
/// A partition is *spillable*: when the process-wide PartitionStore has
/// a resident budget, cold partitions are written to a GTDF file and
/// their columns dropped; the first access afterwards faults the
/// columns back in (fixed-width columns as zero-copy spans over the
/// mmap'ed file). `column()` fault-in is transparent, but a reference
/// it returns is only guaranteed to stay valid against a *concurrent*
/// eviction while a Pin is held — every multi-partition DataFrame op
/// and ForEachPartition pins for you; only code that hands bare
/// `Partition&`s to its own threads needs to Pin explicitly.
class Partition {
 public:
  /// Wraps freshly built columns (registers their bytes).
  explicit Partition(std::vector<Column> columns);
  /// Shares already-tracked columns (no new accounting).
  explicit Partition(std::vector<SharedColumn> columns);
  ~Partition();
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(types_.size()); }
  DataType column_type(int i) const { return types_[i]; }
  /// Faults the partition in if spilled.
  const Column& column(int i) const;
  /// Faults in if spilled; the returned shared column stays valid even
  /// if this partition is evicted afterwards.
  SharedColumn column_ptr(int i) const;
  /// Resident bytes of this partition's columns (shared columns count
  /// in every partition that references them); 0 while spilled.
  int64_t ByteSize() const;
  bool resident() const {
    return resident_.load(std::memory_order_acquire);
  }

  /// RAII residency pin: faults the partition in and blocks eviction
  /// until destroyed. Cheap (one mutex round-trip) and reentrant.
  class Pin {
   public:
    explicit Pin(const Partition& p);
    ~Pin();
    Pin(Pin&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    Pin& operator=(Pin&&) = delete;

   private:
    const Partition* p_;
  };

 private:
  friend class PartitionStore;
  void Init();
  /// Requires mu_; loads columns from spill_path_ and re-admits.
  void FaultInLocked() const;
  /// Requires mu_, resident, unpinned. Writes the GTDF file on first
  /// eviction (columns are immutable, so a re-eviction reuses it) and
  /// drops the column references. Returns false if the write failed
  /// (the partition then simply stays resident); *file_bytes gets the
  /// bytes newly written to disk.
  bool SpillLocked(int64_t* file_bytes) const;

  std::vector<DataType> types_;
  int64_t num_rows_ = 0;
  PartitionStore* store_ = nullptr;

  mutable std::mutex mu_;
  mutable std::vector<SharedColumn> columns_;  // empty while spilled
  mutable std::atomic<bool> resident_{true};
  mutable int pin_count_ = 0;          // guarded by mu_
  mutable int64_t resident_bytes_ = 0;  // guarded by mu_
  mutable std::string spill_path_;      // set on first spill
};

/// Read-only view of one row of a partition.
class RowView {
 public:
  RowView(const Partition* partition, const Schema* schema, int64_t row)
      : partition_(partition), schema_(schema), row_(row) {}

  double GetDouble(int col) const {
    return partition_->column(col).doubles()[row_];
  }
  int64_t GetInt64(int col) const {
    return partition_->column(col).int64s()[row_];
  }
  const std::string& GetString(int col) const {
    return partition_->column(col).strings()[row_];
  }
  const spatial::Point& GetPoint(int col) const {
    return partition_->column(col).points()[row_];
  }
  Value Get(int col) const { return partition_->column(col).Get(row_); }
  int ColumnIndex(const std::string& name) const {
    return schema_->FieldIndex(name);
  }
  int64_t row() const { return row_; }

 private:
  const Partition* partition_;
  const Schema* schema_;
  int64_t row_;
};

/// Aggregations supported by GroupByAgg.
enum class AggKind { kCount, kSum, kMin, kMax, kMean, kVariance, kStdDev };

struct AggSpec {
  AggKind kind;
  /// Source column (ignored for kCount; pass ""). Must be numeric.
  std::string column;
  /// Output column name.
  std::string alias;
};

/// GroupByAgg's phase 1 pre-aggregates each (input partition, shard)'s
/// rows into a table of at most this many distinct keys; once the table
/// is full, every later row of that (partition, shard) goes to the
/// merge raw. A fixed constant, not a knob: the output does not depend
/// on it, only the work split does (DESIGN.md §12).
inline constexpr size_t kGroupByPartialCap = 1024;

/// Hash of one group key (`num_keys` int64s). GroupByAgg puts a group
/// in output partition `GroupKeyHash(key, n) % num_shards`.
uint64_t GroupKeyHash(const int64_t* key, size_t num_keys);

/// An immutable, partitioned, columnar DataFrame executed on the
/// process thread pool — the engine under the preprocessing module,
/// standing in for Sedona/Spark (DESIGN.md §1). Transformations return
/// new DataFrames; per-partition work runs in parallel; group-by
/// shuffles rows to hash shards once and folds the shards in parallel,
/// so no operation funnels all rows through a single "master" buffer.
class DataFrame {
 public:
  DataFrame() = default;

  /// Builds a single-partition frame from columns, then optionally
  /// Repartition() for parallelism.
  static DataFrame FromColumns(
      std::vector<std::pair<std::string, Column>> columns);

  /// Builds a frame that is already split into `partitions` (all must
  /// match `schema`).
  static DataFrame FromPartitions(
      std::shared_ptr<const Schema> schema,
      std::vector<std::shared_ptr<const Partition>> partitions);

  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> schema_ptr() const { return schema_; }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  const Partition& partition(int i) const { return *partitions_[i]; }
  std::shared_ptr<const Partition> partition_ptr(int i) const {
    return partitions_[i];
  }
  int64_t NumRows() const;
  /// Total tracked bytes across partitions.
  int64_t ByteSize() const;

  // --- Transformations (lazy-free: each executes eagerly in parallel) ---

  /// Redistributes rows round-robin into `n` partitions.
  DataFrame Repartition(int n) const;

  /// Keeps the named columns, in the given order.
  DataFrame Select(const std::vector<std::string>& names) const;

  /// Keeps rows where `pred` returns true.
  DataFrame Filter(const std::function<bool(const RowView&)>& pred) const;

  /// Appends a computed column.
  DataFrame WithColumn(
      const std::string& name, DataType type,
      const std::function<Value(const RowView&)>& fn) const;

  /// Drops a column.
  DataFrame Drop(const std::string& name) const;

  /// Groups by int64 key columns (any number, any values) and computes
  /// any number of aggregates. Two-phase: each input partition scatters
  /// its rows to hash shards once (pre-aggregating a shard's first
  /// kGroupByPartialCap keys), then each shard folds its rows in
  /// parallel (one output partition per shard, rows in first-seen
  /// order within the shard, that order being partition-major row
  /// order). Each key's rows fold in row order into one partial per
  /// partition, and the partials fold in partition index order, the
  /// first one copied, so every aggregate is bitwise reproducible for a
  /// given partitioning.
  DataFrame GroupByAgg(const std::vector<std::string>& keys,
                       const std::vector<AggSpec>& aggs,
                       int num_shards = 0) const;

  /// Inner hash join on one int64 key column each side. The right side
  /// is built into a hash table (broadcast); the left side probes in
  /// parallel.
  DataFrame JoinInner(const DataFrame& right, const std::string& left_key,
                      const std::string& right_key) const;

  /// Sorts all rows by an int64 column (ascending), producing a single
  /// partition. Used only for small result sets (e.g. before export).
  DataFrame SortByInt64(const std::string& name) const;

  /// Concatenates the rows of two frames with identical schemas (the
  /// partitions of `other` are appended; no data is copied).
  DataFrame Union(const DataFrame& other) const;

  /// Unique combinations of the given int64 key columns.
  DataFrame Distinct(const std::vector<std::string>& keys) const;

  /// Runs `fn` over every partition in parallel (read-only access).
  void ForEachPartition(
      const std::function<void(const Partition&, int)>& fn) const;

  /// All values of an int64/double column, concatenated across
  /// partitions (ordering follows partition order).
  std::vector<int64_t> CollectInt64(const std::string& name) const;
  std::vector<double> CollectDouble(const std::string& name) const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<std::shared_ptr<const Partition>> partitions_;
};

}  // namespace geotorch::df

#endif  // GEOTORCH_DF_DATAFRAME_H_
