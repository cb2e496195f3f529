#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "core/check.h"
#include "obs/obs.h"

namespace geotorch {
namespace {
// The least work, in multiply-adds, worth a chunk of its own. Two
// chunks need 1 << 18, the old GEMM fan-out volume; the sweep in
// EXPERIMENTS.md "One fork-join, one work-size rule" found 1 << 16 split
// 1 << 14-element loops in two at three times their inline cost.
constexpr int64_t kMinChunkWork = int64_t{1} << 17;

// True on threads owned by a ThreadPool, and on a ParallelForRange
// caller while it runs one of its own chunks. Nested ParallelFor calls
// from such a thread run inline instead of re-submitting: a worker
// blocking on tasks that no free worker can pick up would deadlock the
// pool.
thread_local bool t_in_pool_work = false;
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

namespace {
bool OnParallelDevice() { return GetDefaultDevice() == Device::kParallel; }

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
}  // namespace

DeviceGuard::DeviceGuard(Device device) : saved_(t_device_override) {
  t_device_override = device;
}

DeviceGuard::~DeviceGuard() { t_device_override = saved_; }

// The record of one ParallelForRange call. The caller and every ticket
// hold it by shared_ptr, so a worker that pops a ticket after all chunks
// are claimed reads only `next` of a live record; `fn`, on the caller's
// stack, is only called for a claimed chunk, which the caller waits for.
struct ThreadPool::Job {
  Job(const std::function<void(int64_t, int64_t)>& fn, int64_t n,
      int64_t chunks)
      : fn(fn), n(n), per(CeilDiv(n, chunks)), chunks(chunks) {}

  // Claims the next unclaimed chunk and runs it; false once every chunk
  // is claimed. An exception is kept for the caller to rethrow.
  bool RunChunk() {
    const int64_t c = next.fetch_add(1);
    if (c >= chunks) return false;
    try {
      fn(c * per, std::min(n, (c + 1) * per));
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
    if (done.fetch_add(1) + 1 == chunks) {
      std::lock_guard<std::mutex> lock(mu);
      all_done = true;
      finished.notify_one();
    }
    return true;
  }

  // Blocks until every chunk has run.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    finished.wait(lock, [this] { return all_done; });
  }

  const std::function<void(int64_t, int64_t)>& fn;
  const int64_t n, per, chunks;
  std::atomic<int64_t> next{0};  // the next chunk to claim
  std::atomic<int64_t> done{0};  // chunks finished
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // the first chunk's exception, if any
  std::mutex mu;
  bool all_done = false;  // guarded by mu; set by the last chunk
  std::condition_variable finished;
};

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
  const bool queued = tasks_.Push({std::move(packaged), nullptr, enqueue_ns});
  GEO_CHECK(queued) << "Submit on a ThreadPool that is shutting down";
  GEO_OBS_HIST("pool.queue_depth", static_cast<int64_t>(tasks_.size()));
  return fut;
}

void ThreadPool::WorkerLoop() {
  t_in_pool_work = true;
  PendingTask pending;
  while (tasks_.Pop(&pending)) {
    const int64_t start_ns = GEO_OBS_ON() ? obs::NowNs() : 0;
    if (pending.enqueue_ns != 0 && start_ns != 0) {
      GEO_OBS_HIST("pool.task_latency_us",
                   (start_ns - pending.enqueue_ns) / 1000);
    }
    if (pending.job != nullptr) {
      pending.job->RunChunk();
    } else {
      pending.task();
    }
    if (start_ns != 0) {
      GEO_OBS_HIST("pool.task_run_us", (obs::NowNs() - start_ns) / 1000);
    }
    pending = {};  // release the task's captures now, not at the next pop
  }
}

int64_t ThreadPool::Chunks(int64_t n, int64_t work_per_item) const {
  if (n <= 0) return 0;
  if (n == 1 || t_in_pool_work || !OnParallelDevice()) return 1;
  // Items of kMinChunkWork or more each earn a chunk; below that,
  // n * work_per_item would need 2^46 items to overflow.
  const int64_t by_work =
      work_per_item >= kMinChunkWork
          ? n
          : std::max<int64_t>(1, n * std::max<int64_t>(work_per_item, 0) /
                                     kMinChunkWork);
  const int64_t chunks =
      std::min({n, static_cast<int64_t>(num_threads()), by_work});
  // Equal ranges of ceil(n / chunks) items can cover n in fewer chunks
  // (n = 5 over 4 is 2 + 2 + 1).
  return CeilDiv(n, CeilDiv(n, chunks));
}

void ThreadPool::ParallelForRange(
    int64_t n, const std::function<void(int64_t, int64_t)>& fn,
    int64_t work_per_item) {
  if (n <= 0) return;
  const int64_t chunks = Chunks(n, work_per_item);
  if (chunks == 1) {
    // Only nested calls are counted: the serial device's runs are not,
    // because several serve batcher threads run them at once.
    if (t_in_pool_work) GEO_OBS_COUNT("pool.inline_runs", 1);
    fn(0, n);
    return;
  }
  // One ticket per chunk past the caller's own; the caller claims chunks
  // too, so the job finishes even when every worker is busy.
  const auto job = std::make_shared<Job>(fn, n, chunks);
  GEO_OBS_COUNT("pool.tasks_submitted", chunks - 1);
  const int64_t enqueue_ns = GEO_OBS_ON() ? obs::NowNs() : 0;
  for (int64_t c = 1; c < chunks; ++c) {
    const bool queued = tasks_.Push({{}, job, enqueue_ns});
    GEO_CHECK(queued) << "ParallelFor on a ThreadPool that is shutting down";
  }
  GEO_OBS_HIST("pool.queue_depth", static_cast<int64_t>(tasks_.size()));
  t_in_pool_work = true;
  while (job->RunChunk()) {
  }
  t_in_pool_work = false;
  job->Wait();
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn,
                             int64_t work_per_item) {
  ParallelForRange(
      n,
      [&fn](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) fn(i);
      },
      work_per_item);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace geotorch
