#ifndef GEOTORCH_CORE_THREAD_POOL_H_
#define GEOTORCH_CORE_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"

namespace geotorch {

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
  /// overhead. Safe to call with n == 0.
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
