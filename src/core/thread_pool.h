#ifndef GEOTORCH_CORE_THREAD_POOL_H_
#define GEOTORCH_CORE_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"

namespace geotorch {

/// Execution backend for heavy kernels and partitioned work.
///
/// The original GeoTorchAI runs its deep-learning module on either CPU
/// or GPU; this environment has no GPU, so the accelerated device is
/// simulated by the thread pool (see DESIGN.md §1). The device is the
/// one switch for serial execution: ThreadPool::ParallelFor and
/// ParallelForRange run the whole range on the calling thread when its
/// device is kSerial, so tensor kernels, the optimizer, spatial joins,
/// DataFrame operators and preprocessing all follow it.
enum class Device {
  kSerial,    ///< single-threaded execution ("CPU" in the paper's Fig. 9)
  kParallel,  ///< thread-pool execution ("GPU" stand-in)
};

/// Returns the calling thread's device: its DeviceGuard override if one
/// is active, else the process default.
Device GetDefaultDevice();

/// Sets the process-wide default device, which every thread without
/// an override reads (pool workers included).
void SetDefaultDevice(Device device);

/// RAII per-thread device override (DESIGN.md §5). Sets the calling
/// thread's override and restores the thread's previous one (or none)
/// on destruction; other threads and the process default are
/// untouched. The serve batcher pins its thread to kSerial with one;
/// benchmarks use it to time both devices.
class DeviceGuard {
 public:
  explicit DeviceGuard(Device device);
  ~DeviceGuard();
  DeviceGuard(const DeviceGuard&) = delete;
  DeviceGuard& operator=(const DeviceGuard&) = delete;

 private:
  std::optional<Device> saved_;
};

/// A fixed-size worker pool. This is the "cluster" that executes
/// DataFrame partitions and parallel tensor kernels: each worker thread
/// plays the role of a Spark executor in the original system.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  /// Closes the task queue, lets the workers run every task already
  /// submitted, and joins them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Work of an item that earns a chunk of its own: the default for
  /// partition-sized items (DataFrame partitions, CSV chunks, raster
  /// planes, point ranges), which fan out min(n, num_threads()) wide.
  static constexpr int64_t kItemIsChunk = std::numeric_limits<int64_t>::max();

  /// Enqueues a task; the future resolves when it completes. Submitting
  /// to a pool that is being destroyed is a checked error.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) in Chunks(n, work_per_item) contiguous
  /// ranges and blocks until all iterations finish. Safe with n == 0.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                   int64_t work_per_item = kItemIsChunk);

  /// Like ParallelFor but hands each chunk a [begin, end) range. The
  /// calling thread runs chunks too; the pool's workers pick up the
  /// rest. A call nested in a chunk (on a worker, or in one the caller
  /// runs) runs inline.
  void ParallelForRange(int64_t n,
                        const std::function<void(int64_t, int64_t)>& fn,
                        int64_t work_per_item = kItemIsChunk);

  /// The one fan-out rule (DESIGN.md §5): the number of equal contiguous
  /// ranges ParallelFor[Range] splits n items of `work_per_item`
  /// multiply-adds each into. It is min(n, num_threads(), n *
  /// work_per_item / a private minimum chunk of work), at least 1, and 1
  /// on the serial device, on a pool worker and inside a running chunk.
  /// 0 when n <= 0. Kernels whose serial path is a different body (the
  /// GEMM dispatchers, the spatial probe loop, the STR-tree sort) take it
  /// when this returns 1.
  int64_t Chunks(int64_t n, int64_t work_per_item = kItemIsChunk) const;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide default pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  /// One ParallelForRange call; shared by the caller and its tickets.
  struct Job;

  /// A queued Submit task or a ParallelForRange ticket (a claim on one
  /// chunk of `job`), plus its enqueue timestamp (0 when observability
  /// is off — the latency histogram is skipped for such entries).
  struct PendingTask {
    std::packaged_task<void()> task;
    std::shared_ptr<Job> job;
    int64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  BoundedQueue<PendingTask> tasks_;  // unbounded: Submit never blocks
};

}  // namespace geotorch

#endif  // GEOTORCH_CORE_THREAD_POOL_H_
