#ifndef GEOTORCH_CORE_STORAGE_POOL_H_
#define GEOTORCH_CORE_STORAGE_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

/// Size-bucketed caching allocator under every pooled tensor buffer
/// (DESIGN.md §7).
namespace geotorch {

/// Caching pool of 64-byte-aligned blocks in power-of-two size classes
/// from 256 B to 1 GiB. A class's blocks live in one of 8 shards chosen
/// by class index (not by thread), so a block freed on another thread
/// returns to the list it came from. Each shard is a mutex plus one LIFO
/// free list per class, caching at most a configurable byte cap (128 MiB
/// by default); frees beyond the cap go back to the OS as evictions.
/// Zero-byte and >1 GiB requests bypass the cache as plain aligned
/// new/delete. Under AddressSanitizer a cached block is poisoned while it
/// sits in a free list, so a use after free of a recycled block is
/// reported as use-after-poison.
class StoragePool {
 public:
  static constexpr int kMinClassLog2 = 8;   ///< 256 B
  static constexpr int kMaxClassLog2 = 30;  ///< 1 GiB
  static constexpr int kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr int kNumShards = 8;
  static constexpr size_t kAlignment = 64;

  struct Stats {
    int64_t hits = 0;        ///< allocations served from a free list
    int64_t misses = 0;      ///< class allocations that hit the OS
    int64_t bypasses = 0;    ///< allocations outside the cache
    int64_t evictions = 0;   ///< frees dropped because a shard was full
    int64_t bytes_recycled = 0;
    int64_t bytes_malloced = 0;
    int64_t cached_bytes = 0;   ///< bytes sitting in free lists now
    int64_t cached_blocks = 0;
  };

  /// Process-wide pool.
  static StoragePool& Global();

  /// Returns a block of at least `bytes` bytes, 64-byte aligned, and
  /// stores in *class_bytes the size to hand back to Deallocate (0 for
  /// a bypass, when the block is not pool-sized). Zero bytes yields null.
  void* Allocate(size_t bytes, size_t* class_bytes);

  /// Returns a block obtained from Allocate with its class_bytes.
  void Deallocate(void* p, size_t class_bytes);

  /// Frees every cached block; returns the bytes released.
  int64_t Trim();

  void SetMaxCachedBytesPerShard(int64_t bytes);

  Stats GetStats() const;
  /// Zeroes the event counters (cached bytes/blocks are state, kept).
  void ResetStats();

  /// Exports pool.cached_bytes, pool.cached_blocks and per-class
  /// occupancy (pool.class_<bytes>.blocks) as obs gauges.
  void PublishGauges() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<void*> free[kNumClasses];  // guarded by mu
    int64_t cached_bytes = 0;              // guarded by mu
  };

  Shard& ShardFor(int class_index) {
    return shards_[class_index % kNumShards];
  }

  Shard shards_[kNumShards];
  std::atomic<int64_t> max_cached_per_shard_{int64_t{128} << 20};

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> bypasses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> bytes_recycled_{0};
  std::atomic<int64_t> bytes_malloced_{0};
};

}  // namespace geotorch

#endif  // GEOTORCH_CORE_STORAGE_POOL_H_
