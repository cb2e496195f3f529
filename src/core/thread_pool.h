#ifndef GEOTORCH_CORE_THREAD_POOL_H_
#define GEOTORCH_CORE_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <future>
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

/// True when the calling thread's device is kParallel. Kernels whose
/// serial path is a different body from their fan-out (the GEMM
/// dispatchers, the spatial probe loop, the STR-tree sort) choose with
/// this.
bool OnParallelDevice();

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

  /// Enqueues a task; the future resolves when it completes. Submitting
  /// to a pool that is being destroyed is a checked error.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// iterations finish. Iterations are chunked to limit scheduling
  /// overhead. Runs inline on the calling thread when that thread's
  /// device is kSerial, when it is a pool worker, or when the pool has
  /// one worker. Safe to call with n == 0.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Like ParallelFor but hands each worker a [begin, end) range.
  void ParallelForRange(
      int64_t n, const std::function<void(int64_t, int64_t)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide default pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  /// A queued task plus its enqueue timestamp (0 when observability is
  /// off — the latency histogram is skipped for such tasks).
  struct PendingTask {
    std::packaged_task<void()> task;
    int64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  BoundedQueue<PendingTask> tasks_;  // unbounded: Submit never blocks
};

}  // namespace geotorch

#endif  // GEOTORCH_CORE_THREAD_POOL_H_
