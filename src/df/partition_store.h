#ifndef GEOTORCH_DF_PARTITION_STORE_H_
#define GEOTORCH_DF_PARTITION_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace geotorch::df {

class Partition;

/// Process-wide residency manager for DataFrame partitions — the
/// out-of-core layer under `src/df` (DESIGN.md §12). Every Partition
/// registers here at construction; when the summed bytes of resident
/// partitions exceed the budget, the coldest unpinned partitions are
/// spilled to GTDF files in the spill directory and their columns
/// dropped. Touching a spilled partition
/// faults it back in (fixed-width columns as zero-copy spans over the
/// mmap'ed file), re-admits it at the hot end of the LRU, and may in
/// turn evict someone else. Pinned partitions (Partition::Pin — taken
/// automatically by ForEachPartition and by every multi-partition op)
/// are never evicted, so partition-parallel workers cannot observe a
/// column disappearing mid-scan.
///
/// Knobs (read once at first use; Configure() overrides):
///   GEOTORCH_DF_RESIDENT_MB=N  resident-set byte budget (default: no
///                              budget, so nothing ever spills)
///   GEOTORCH_DF_SPILL_DIR=dir  spill directory (default geotorch_spill)
class PartitionStore {
 public:
  struct Options {
    int64_t resident_budget_bytes = std::numeric_limits<int64_t>::max();
    std::string spill_dir = "geotorch_spill";

    static Options FromEnv();
  };

  /// Process-wide store (leaked singleton: partitions alive at exit can
  /// still unregister safely). First call reads Options::FromEnv().
  static PartitionStore& Global();

  /// Replaces the configuration. The budget applies to every
  /// partition at the next admission; the spill directory to the next
  /// spill. Intended for tests and bench harnesses.
  void Configure(const Options& options);
  Options options() const;

  /// Monotonic counters + live accounting, for tests and benches.
  struct Stats {
    int64_t resident_partitions = 0;
    int64_t spilled_partitions = 0;
    int64_t resident_bytes = 0;
    int64_t peak_resident_bytes = 0;
    int64_t spill_count = 0;   ///< evictions (incl. re-evictions)
    int64_t fault_count = 0;   ///< fault-ins
    int64_t spill_bytes = 0;   ///< GTDF bytes actually written
  };
  Stats GetStats() const;
  /// Resets peak_resident_bytes to the current resident_bytes (the
  /// monotonic counters are left alone). For bench capture windows.
  void ResetPeak();

 private:
  friend class Partition;

  PartitionStore() = default;

  // All hooks below are called by Partition. Lock order: a partition's
  // mu_ may be held while taking the store mutex, never the reverse —
  // EnforceBudget releases the store mutex before locking a victim.
  void Register(const Partition* p, int64_t bytes);
  void Unregister(const Partition* p);
  void OnFaultIn(const Partition* p, int64_t bytes);
  void Touch(const Partition* p);
  /// Spills coldest unpinned partitions until resident bytes fit the
  /// budget (or only pinned/excluded partitions remain). Must be
  /// called with no partition mutex held.
  void EnforceBudget(const Partition* exclude);
  std::string NextSpillPath();

  void TrySpill(const Partition* p);
  void TouchLocked(const Partition* p);
  void UpdateGaugeLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Options opts_ = Options::FromEnv();
  /// Resident partitions, hottest first.
  std::list<const Partition*> lru_;
  std::unordered_map<const Partition*, std::list<const Partition*>::iterator>
      resident_index_;
  std::unordered_set<const Partition*> spilled_;
  /// Victims between selection and spill completion; Unregister waits
  /// for membership to clear so an in-flight eviction never touches a
  /// destroyed partition.
  std::unordered_set<const Partition*> evicting_;
  int64_t resident_bytes_ = 0;
  int64_t peak_resident_bytes_ = 0;
  int64_t spill_count_ = 0;
  int64_t fault_count_ = 0;
  int64_t spill_bytes_ = 0;
  uint64_t next_file_id_ = 0;
  bool dir_ready_ = false;
};

}  // namespace geotorch::df

#endif  // GEOTORCH_DF_PARTITION_STORE_H_
