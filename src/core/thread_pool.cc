#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "core/check.h"
#include "obs/obs.h"

namespace geotorch {
namespace {
// True on threads owned by a ThreadPool. Nested ParallelFor calls from a
// worker run inline instead of re-submitting: a worker blocking on tasks
// that no free worker can pick up would deadlock the pool.
thread_local bool t_inside_pool_worker = false;
std::atomic<Device> g_default_device{Device::kParallel};
// The calling thread's DeviceGuard override; empty reads the default.
thread_local std::optional<Device> t_device_override;
}  // namespace

Device GetDefaultDevice() {
  if (t_device_override) return *t_device_override;
  return g_default_device.load(std::memory_order_relaxed);
}

void SetDefaultDevice(Device device) {
  g_default_device.store(device, std::memory_order_relaxed);
}

bool OnParallelDevice() { return GetDefaultDevice() == Device::kParallel; }

DeviceGuard::DeviceGuard(Device device) : saved_(t_device_override) {
  t_device_override = device;
}

DeviceGuard::~DeviceGuard() { t_device_override = saved_; }

ThreadPool::ThreadPool(int num_threads) {
  GEO_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  tasks_.Close();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  GEO_OBS_COUNT("pool.tasks_submitted", 1);
  const int64_t enqueue_ns = GEO_OBS_ON() ? obs::NowNs() : 0;
  const bool queued = tasks_.Push({std::move(packaged), enqueue_ns});
  GEO_CHECK(queued) << "Submit on a ThreadPool that is shutting down";
  GEO_OBS_HIST("pool.queue_depth", static_cast<int64_t>(tasks_.size()));
  return fut;
}

void ThreadPool::WorkerLoop() {
  t_inside_pool_worker = true;
  PendingTask pending;
  while (tasks_.Pop(&pending)) {
    const int64_t start_ns = GEO_OBS_ON() ? obs::NowNs() : 0;
    if (pending.enqueue_ns != 0 && start_ns != 0) {
      GEO_OBS_HIST("pool.task_latency_us",
                   (start_ns - pending.enqueue_ns) / 1000);
    }
    pending.task();
    if (start_ns != 0) {
      GEO_OBS_HIST("pool.task_run_us", (obs::NowNs() - start_ns) / 1000);
    }
    pending = {};  // release the task's captures now, not at the next pop
  }
}

void ThreadPool::ParallelForRange(
    int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  // The serial device: no task, lock or shared counter, because several
  // serve batcher threads run this at once.
  if (!OnParallelDevice()) {
    fn(0, n);
    return;
  }
  if (t_inside_pool_worker) {
    GEO_OBS_COUNT("pool.inline_runs", 1);
    fn(0, n);
    return;
  }
  const int64_t chunks = std::min<int64_t>(n, num_threads());
  if (chunks <= 1) {
    GEO_OBS_COUNT("pool.inline_runs", 1);
    fn(0, n);
    return;
  }
  const int64_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = c * per;
    const int64_t end = std::min<int64_t>(n, begin + per);
    if (begin >= end) break;
    futs.push_back(Submit([&fn, begin, end] { fn(begin, end); }));
  }
  for (auto& f : futs) f.get();
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  ParallelForRange(n, [&fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace geotorch
