// Concurrency stress test for the storage pool: ThreadPool workers
// hammer Allocate/Deallocate (including cross-thread frees through a
// shared exchange), while another thread concurrently runs Trim,
// GetStats and PublishGauges. Run it from the `tsan` preset to check
// it under ThreadSanitizer.
#include "core/storage_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

namespace geotorch {
namespace {

TEST(PoolTsanTest, ConcurrentAllocFreeAndTrim) {
  StoragePool& pool = StoragePool::Global();

  // Cross-thread hand-off: workers park freed-block descriptors here so
  // *other* workers (or the final drain) return them to the pool,
  // exercising the dataloader-prefetch pattern of allocate-on-worker,
  // free-on-consumer.
  std::mutex mu;
  std::vector<std::pair<void*, size_t>> parked;

  std::atomic<bool> stop{false};
  constexpr int64_t kTasks = 4096;
  ThreadPool::Global().ParallelForRange(
      kTasks, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t bytes = 256u << (i % 6);  // 256 B .. 8 KiB classes
          size_t class_bytes = 0;
          void* p = pool.Allocate(bytes, &class_bytes);
          ASSERT_NE(p, nullptr);
          std::memset(p, 0xab, bytes);  // touch: catches double-handout
          if (i % 3 == 0) {
            std::lock_guard<std::mutex> lock(mu);
            parked.emplace_back(p, class_bytes);
          } else {
            pool.Deallocate(p, class_bytes);
          }
          if (i % 7 == 0) {
            std::lock_guard<std::mutex> lock(mu);
            if (!parked.empty()) {
              auto [q, cb] = parked.back();
              parked.pop_back();
              pool.Deallocate(q, cb);
            }
          }
        }
      });

  // A churn thread races maintenance against the workers of a second
  // fan-out. The fan-out repeats until the churn thread has made a few
  // passes: without TSan's slowdown one sweep can finish before the
  // churn thread gets going.
  std::atomic<int64_t> done{0};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pool.Trim();
      (void)pool.GetStats();
      pool.PublishGauges();
      done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  do {
    ThreadPool::Global().ParallelForRange(
        kTasks, [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            size_t class_bytes = 0;
            void* p = pool.Allocate(1024, &class_bytes);
            std::memset(p, 0xcd, 1024);
            pool.Deallocate(p, class_bytes);
          }
        });
  } while (done.load(std::memory_order_relaxed) < 4);
  stop.store(true, std::memory_order_relaxed);
  churn.join();

  // Drain any still-parked blocks and verify internal consistency.
  {
    std::lock_guard<std::mutex> lock(mu);
    for (auto [p, cb] : parked) pool.Deallocate(p, cb);
    parked.clear();
  }
  pool.Trim();
  const StoragePool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.cached_bytes, 0);
  EXPECT_EQ(stats.cached_blocks, 0);
}

}  // namespace
}  // namespace geotorch
