#include "core/storage_pool.h"

#include <bit>
#include <new>
#include <string>

#include "obs/obs.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define GEO_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define GEO_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define GEO_POOL_POISON(p, n) ((void)(p), (void)(n))
#define GEO_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace geotorch {
namespace {

void* AlignedNew(size_t bytes) {
  return ::operator new(bytes, std::align_val_t{StoragePool::kAlignment});
}

void AlignedDelete(void* p) {
  ::operator delete(p, std::align_val_t{StoragePool::kAlignment});
}

// Class index of a request, or -1 when it is outside the pooled range.
int ClassIndex(size_t bytes) {
  if (bytes == 0 || bytes > (size_t{1} << StoragePool::kMaxClassLog2)) {
    return -1;
  }
  const int log2 = std::bit_width(bytes - 1);  // ceil(log2(bytes))
  return log2 <= StoragePool::kMinClassLog2
             ? 0
             : log2 - StoragePool::kMinClassLog2;
}

}  // namespace

StoragePool& StoragePool::Global() {
  static StoragePool* pool = new StoragePool();
  return *pool;
}

void* StoragePool::Allocate(size_t bytes, size_t* class_bytes) {
  *class_bytes = 0;
  if (bytes == 0) return nullptr;
  const int cls = ClassIndex(bytes);
  if (cls < 0) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    GEO_OBS_COUNT("pool.bypass", 1);
    return AlignedNew(bytes);
  }
  const size_t size = size_t{1} << (cls + kMinClassLog2);
  *class_bytes = size;
  Shard& shard = ShardFor(cls);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<void*>& list = shard.free[cls];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      GEO_POOL_UNPOISON(p, size);
      shard.cached_bytes -= static_cast<int64_t>(size);
      hits_.fetch_add(1, std::memory_order_relaxed);
      bytes_recycled_.fetch_add(static_cast<int64_t>(size),
                                std::memory_order_relaxed);
      GEO_OBS_COUNT("pool.hit", 1);
      GEO_OBS_COUNT("pool.bytes_recycled", static_cast<int64_t>(size));
      return p;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  bytes_malloced_.fetch_add(static_cast<int64_t>(size),
                            std::memory_order_relaxed);
  GEO_OBS_COUNT("pool.miss", 1);
  GEO_OBS_COUNT("pool.bytes_malloced", static_cast<int64_t>(size));
  return AlignedNew(size);
}

void StoragePool::Deallocate(void* p, size_t class_bytes) {
  if (p == nullptr) return;
  const int cls = class_bytes == 0 ? -1 : ClassIndex(class_bytes);
  if (cls < 0) {
    AlignedDelete(p);
    return;
  }
  Shard& shard = ShardFor(cls);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const int64_t size = static_cast<int64_t>(class_bytes);
    if (shard.cached_bytes + size <=
        max_cached_per_shard_.load(std::memory_order_relaxed)) {
      // Poisoned under the shard lock: once it is released, another
      // thread may pop the block and unpoison it.
      GEO_POOL_POISON(p, class_bytes);
      shard.free[cls].push_back(p);
      shard.cached_bytes += size;
      return;
    }
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  GEO_OBS_COUNT("pool.evict", 1);
  AlignedDelete(p);
}

int64_t StoragePool::Trim() {
  int64_t freed = 0;
  for (Shard& shard : shards_) {
    std::vector<void*> drop;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (int cls = 0; cls < kNumClasses; ++cls) {
        std::vector<void*>& list = shard.free[cls];
        for (void* p : list) {
          GEO_POOL_UNPOISON(p, size_t{1} << (cls + kMinClassLog2));
        }
        drop.insert(drop.end(), list.begin(), list.end());
        list.clear();
      }
      freed += shard.cached_bytes;
      shard.cached_bytes = 0;
    }
    for (void* p : drop) AlignedDelete(p);
  }
  return freed;
}

void StoragePool::SetMaxCachedBytesPerShard(int64_t bytes) {
  max_cached_per_shard_.store(bytes, std::memory_order_relaxed);
}

StoragePool::Stats StoragePool::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_recycled = bytes_recycled_.load(std::memory_order_relaxed);
  s.bytes_malloced = bytes_malloced_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.cached_bytes += shard.cached_bytes;
    for (const std::vector<void*>& list : shard.free) {
      s.cached_blocks += static_cast<int64_t>(list.size());
    }
  }
  return s;
}

void StoragePool::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  bypasses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  bytes_recycled_.store(0, std::memory_order_relaxed);
  bytes_malloced_.store(0, std::memory_order_relaxed);
}

void StoragePool::PublishGauges() const {
  const Stats s = GetStats();
  obs::SetGauge("pool.cached_bytes", s.cached_bytes);
  obs::SetGauge("pool.cached_blocks", s.cached_blocks);
  for (int cls = 0; cls < kNumClasses; ++cls) {
    const Shard& shard = shards_[cls % kNumShards];
    int64_t blocks = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      blocks = static_cast<int64_t>(shard.free[cls].size());
    }
    if (blocks == 0) continue;
    obs::SetGauge("pool.class_" +
                      std::to_string(int64_t{1} << (cls + kMinClassLog2)) +
                      ".blocks",
                  blocks);
  }
}

}  // namespace geotorch
