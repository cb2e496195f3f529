#include "core/status.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bounded_queue.h"
#include "core/env.h"
#include "core/memory.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "df/dataframe.h"
#include "obs/obs.h"
#include "spatial/join.h"
#include "spatial/strtree.h"

namespace geotorch {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotImplemented),
               "NotImplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, DeadlineExceededFactory) {
  Status s = Status::DeadlineExceeded("took too long");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: took too long");
}

// --- Shared GEOTORCH_* env parsing (core/env.h) -----------------------------

struct ScopedEnv {
  explicit ScopedEnv(const char* name) : name_(name) { unsetenv(name_); }
  ~ScopedEnv() { unsetenv(name_); }
  void Set(const char* value) { setenv(name_, value, 1); }
  const char* name_;
};

TEST(EnvTest, IntFallsBackWhenUnsetEmptyOrUnparsable) {
  ScopedEnv var("GEOTORCH_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 7);
  var.Set("");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 7);
  var.Set("banana");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 7);
}

TEST(EnvTest, IntParsesAndClampsIntoRange) {
  ScopedEnv var("GEOTORCH_TEST_ENV_INT");
  var.Set("42");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 42);
  var.Set("-5");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 1), 1);  // clamped up
  var.Set("1000");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0, 100), 100);  // down
}

TEST(EnvTest, Int64HandlesValuesBeyondIntRange) {
  ScopedEnv var("GEOTORCH_TEST_ENV_INT64");
  var.Set("8589934592");  // 8 GiB in bytes: > INT32_MAX
  EXPECT_EQ(EnvInt64("GEOTORCH_TEST_ENV_INT64", 0, 0), 8589934592LL);
}

TEST(EnvTest, StringFallsBackWhenUnsetOrEmpty) {
  ScopedEnv var("GEOTORCH_TEST_ENV_STR");
  EXPECT_EQ(EnvString("GEOTORCH_TEST_ENV_STR", "dflt"), "dflt");
  var.Set("");
  EXPECT_EQ(EnvString("GEOTORCH_TEST_ENV_STR", "dflt"), "dflt");
  var.Set("/tmp/spill");
  EXPECT_EQ(EnvString("GEOTORCH_TEST_ENV_STR", "dflt"), "/tmp/spill");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Chained(int x) {
  GEO_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Chained(5), 11);
  EXPECT_FALSE(Chained(-5).ok());
}

TEST(ThreadPoolTest, SubmitRuns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto f1 = pool.Submit([&] { counter += 1; });
  auto f2 = pool.Submit([&] { counter += 2; });
  f1.get();
  f2.get();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int64_t i) { hits[i] += 1; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](int64_t) {
    pool.ParallelFor(4, [&](int64_t) { count += 1; });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](int64_t) { FAIL(); });
}

TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  // Opens the gate while the pool below is being destroyed, so the
  // destructor closes a queue that still holds nine tasks.
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.set_value();
  });
  {
    ThreadPool pool(1);
    futs.push_back(pool.Submit([&] {
      gate_open.wait();  // the only worker parks here
      ran += 1;
    }));
    for (int i = 0; i < 9; ++i) futs.push_back(pool.Submit([&] { ran += 1; }));
  }
  opener.join();
  EXPECT_EQ(ran.load(), 10);
  for (auto& f : futs) f.get();  // no broken promise: every task ran
}

// --- Device -----------------------------------------------------------------

TEST(DeviceTest, GuardOverridesOnlyTheCallingThread) {
  const Device process = GetDefaultDevice();
  const Device other =
      process == Device::kSerial ? Device::kParallel : Device::kSerial;
  DeviceGuard guard(other);
  EXPECT_EQ(GetDefaultDevice(), other);
  Device seen = other;
  std::thread([&seen] { seen = GetDefaultDevice(); }).join();
  EXPECT_EQ(seen, process);
}

TEST(DeviceTest, GuardRestoresTheThreadsPreviousOverride) {
  const Device process = GetDefaultDevice();
  {
    DeviceGuard outer(Device::kSerial);
    {
      DeviceGuard inner(Device::kParallel);
      EXPECT_EQ(GetDefaultDevice(), Device::kParallel);
    }
    EXPECT_EQ(GetDefaultDevice(), Device::kSerial);
    // With an override active, the process default is not read.
    SetDefaultDevice(Device::kParallel);
    EXPECT_EQ(GetDefaultDevice(), Device::kSerial);
    SetDefaultDevice(process);
  }
  EXPECT_EQ(GetDefaultDevice(), process);
}

// Turns observability on for one test and restores it afterwards.
class ScopedObsOn {
 public:
  ScopedObsOn() : was_on_(obs::Enabled()) { obs::SetEnabled(true); }
  ~ScopedObsOn() { obs::SetEnabled(was_on_); }

 private:
  bool was_on_;
};

// The pool's pool.tasks_submitted counter (observability must be on).
int64_t TasksSubmitted() {
  return obs::GetCounter("pool.tasks_submitted")->value();
}

// Runs fn() on `device` and stores how many pool tasks it submitted.
template <typename Fn>
auto CountTasks(Device device, int64_t* tasks, const Fn& fn) {
  DeviceGuard guard(device);
  const int64_t before = TasksSubmitted();
  auto out = fn();
  *tasks = TasksSubmitted() - before;
  return out;
}

TEST(DeviceTest, SerialDeviceRunsParallelForRangeOnceOnTheCallingThread) {
  ScopedObsOn obs_on;
  ThreadPool pool(4);
  DeviceGuard serial(Device::kSerial);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::vector<std::thread::id> threads;
  const int64_t before = TasksSubmitted();
  pool.ParallelForRange(1000, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
    threads.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(TasksSubmitted(), before);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 1000}));
  EXPECT_EQ(threads[0], std::this_thread::get_id());
}

// DeviceGuard(kSerial) covers the spatial and DataFrame layers too: none
// of them submits a pool task, and each returns bitwise what the
// parallel device returns.
TEST(DeviceTest, SerialDeviceKeepsSpatialAndDataFrameWorkOffThePool) {
  namespace sp = ::geotorch::spatial;
  ScopedObsOn obs_on;
  ThreadPool pool(4);
  Rng rng(17);
  const sp::GridPartitioner grid(sp::Envelope(0, 0, 10, 10), 8, 8);
  const std::vector<sp::Polygon> cells = grid.CellPolygons();
  std::vector<sp::Point> points;
  for (int i = 0; i < 20000; ++i) {  // some fall outside the grid
    points.push_back({rng.Uniform(-1, 11), rng.Uniform(-1, 11)});
  }
  std::vector<sp::StrTree::Entry> entries;
  for (int64_t i = 0; i < 10000; ++i) {  // past the parallel sort cutoff
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    entries.push_back({sp::Envelope(x, y, x + 1, y + 1), i});
  }
  std::vector<int64_t> keys;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Uniform(0, 300)));
    values.push_back(rng.Uniform(-1, 1));
  }
  const df::DataFrame frame =
      df::DataFrame::FromColumns({{"k", df::Column::FromInt64s(keys)},
                                  {"v", df::Column::FromDoubles(values)}})
          .Repartition(4);

  int64_t serial_tasks = 0;
  int64_t parallel_tasks = 0;
  const auto expect_off_pool = [&](const char* what) {
    EXPECT_EQ(serial_tasks, 0) << what;
    EXPECT_GT(parallel_tasks, 0) << what;
  };

  sp::JoinOptions opts;
  opts.strategy = sp::JoinStrategy::kStrTree;
  opts.pool = &pool;
  const auto join = [&] { return sp::PointInPolygonJoin(points, cells, opts); };
  const auto serial_join = CountTasks(Device::kSerial, &serial_tasks, join);
  const auto parallel_join =
      CountTasks(Device::kParallel, &parallel_tasks, join);
  expect_off_pool("PointInPolygonJoin");
  EXPECT_EQ(serial_join, parallel_join);

  const auto build = [&] { return sp::StrTree(entries, 10, &pool); };
  const auto serial_tree = CountTasks(Device::kSerial, &serial_tasks, build);
  const auto parallel_tree =
      CountTasks(Device::kParallel, &parallel_tasks, build);
  expect_off_pool("StrTree");
  EXPECT_TRUE(serial_tree.IdenticalTo(parallel_tree));

  const auto assign = [&] {
    return sp::AssignPointsToCells(points, grid, &pool);
  };
  const auto serial_cells = CountTasks(Device::kSerial, &serial_tasks, assign);
  const auto parallel_cells =
      CountTasks(Device::kParallel, &parallel_tasks, assign);
  expect_off_pool("AssignPointsToCells");
  EXPECT_EQ(serial_cells, parallel_cells);

  // GroupByAgg runs on ThreadPool::Global(), which has one worker on a
  // single-core host; the bitwise check holds there too.
  const auto group = [&] {
    return frame.GroupByAgg({"k"}, {{df::AggKind::kCount, "", "n"},
                                    {df::AggKind::kSum, "v", "sum_v"},
                                    {df::AggKind::kMean, "v", "mean_v"}});
  };
  const df::DataFrame serial_agg =
      CountTasks(Device::kSerial, &serial_tasks, group);
  const df::DataFrame parallel_agg =
      CountTasks(Device::kParallel, &parallel_tasks, group);
  EXPECT_EQ(serial_tasks, 0) << "GroupByAgg";
  if (ThreadPool::Global().num_threads() > 1) {
    EXPECT_GT(parallel_tasks, 0) << "GroupByAgg";
  }
  ASSERT_EQ(serial_agg.num_partitions(), parallel_agg.num_partitions());
  for (int p = 0; p < serial_agg.num_partitions(); ++p) {
    EXPECT_EQ(serial_agg.partition(p).num_rows(),
              parallel_agg.partition(p).num_rows());
  }
  EXPECT_EQ(serial_agg.CollectInt64("k"), parallel_agg.CollectInt64("k"));
  EXPECT_EQ(serial_agg.CollectInt64("n"), parallel_agg.CollectInt64("n"));
  for (const char* column : {"sum_v", "mean_v"}) {
    const std::vector<double> s = serial_agg.CollectDouble(column);
    const std::vector<double> p = parallel_agg.CollectDouble(column);
    ASSERT_EQ(s.size(), p.size()) << column;
    EXPECT_EQ(std::memcmp(s.data(), p.data(), s.size() * sizeof(double)), 0)
        << column;
  }
}

// --- Fork-join --------------------------------------------------------------

// One ParallelForRange call as the test saw it: each range handed out
// (sorted by begin), the thread that ran it, and the pool tasks the call
// submitted.
struct ForkJoinRecord {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::vector<std::thread::id> threads;
  int64_t tasks = 0;
};

ForkJoinRecord RecordForkJoin(ThreadPool& pool, int64_t n,
                              int64_t work_per_item) {
  std::mutex mu;
  std::vector<std::pair<std::pair<int64_t, int64_t>, std::thread::id>> runs;
  const int64_t before = TasksSubmitted();
  pool.ParallelForRange(
      n,
      [&](int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        runs.push_back({{begin, end}, std::this_thread::get_id()});
      },
      work_per_item);
  ForkJoinRecord rec;
  rec.tasks = TasksSubmitted() - before;
  std::sort(runs.begin(), runs.end());
  for (const auto& [range, thread] : runs) {
    rec.ranges.push_back(range);
    rec.threads.push_back(thread);
  }
  return rec;
}

// Every pool size from 1 to 8, sizes around the worker count, and two
// per-item costs: one that earns each item a chunk, and one far too
// small to fan out. A call hands out Chunks(n, w) contiguous ranges of
// ceil(n / chunks) items covering [0, n) once, submits one task per
// chunk past the first, and runs one of the ranges on the caller.
TEST(ForkJoinTest, SplitsAsChunksSaysAndTheCallerRunsARange) {
  ScopedObsOn obs_on;
  DeviceGuard parallel(Device::kParallel);
  for (int threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    for (const int64_t n : {0, 1, threads - 1, threads, threads + 1, 1000}) {
      for (const int64_t work : {ThreadPool::kItemIsChunk, int64_t{1}}) {
        SCOPED_TRACE(testing::Message() << threads << " threads, n " << n
                                        << ", work " << work);
        const int64_t chunks = pool.Chunks(n, work);
        if (n <= 0) {
          EXPECT_EQ(chunks, 0);
        } else if (work == 1) {
          EXPECT_EQ(chunks, 1);
        } else {
          // min(n, threads) wide, less any chunk equal ranges leave empty.
          const int64_t wide = std::min<int64_t>(n, threads);
          const int64_t per = (n + wide - 1) / wide;
          EXPECT_EQ(chunks, (n + per - 1) / per);
        }
        const ForkJoinRecord rec = RecordForkJoin(pool, n, work);
        ASSERT_EQ(static_cast<int64_t>(rec.ranges.size()), chunks);
        EXPECT_EQ(rec.tasks, std::max<int64_t>(chunks - 1, 0));
        const int64_t per = chunks > 0 ? (n + chunks - 1) / chunks : 0;
        int64_t next = 0;
        for (const auto& [begin, end] : rec.ranges) {
          EXPECT_EQ(begin, next);
          EXPECT_EQ(end, std::min(n, begin + per));
          next = end;
        }
        EXPECT_EQ(next, n);
        if (chunks > 0) {
          EXPECT_NE(std::find(rec.threads.begin(), rec.threads.end(),
                              std::this_thread::get_id()),
                    rec.threads.end());
        }
      }
    }
  }
}

TEST(ForkJoinTest, ChunksIsOneOnTheSerialDeviceAndNeverWiderThanThePool) {
  ThreadPool pool(4);
  {
    DeviceGuard serial(Device::kSerial);
    EXPECT_EQ(pool.Chunks(1000), 1);
    EXPECT_EQ(pool.Chunks(0), 0);
  }
  DeviceGuard parallel(Device::kParallel);
  EXPECT_EQ(pool.Chunks(1000), 4);
  EXPECT_EQ(pool.Chunks(1000, 1), 1);
  // More work per item never means fewer chunks.
  int64_t last = 1;
  for (int64_t work = 1; work < (int64_t{1} << 40); work *= 2) {
    const int64_t chunks = pool.Chunks(1000, work);
    EXPECT_GE(chunks, last) << work;
    EXPECT_LE(chunks, 4) << work;
    last = chunks;
  }
  EXPECT_EQ(last, 4);
}

// Four threads outside the pool fork-join on one shared pool at once;
// every call still covers its range exactly once.
TEST(ForkJoinTest, FourOutsideThreadsShareOnePool) {
  DeviceGuard parallel(Device::kParallel);
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kCalls = 200;
  constexpr int64_t kN = 1000;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      DeviceGuard caller_parallel(Device::kParallel);
      for (int call = 0; call < kCalls; ++call) {
        std::vector<std::atomic<int>> seen(kN);
        pool.ParallelFor(kN, [&](int64_t i) { seen[i] += 1; });
        for (int64_t i = 0; i < kN; ++i) {
          if (seen[i].load() != 1) bad += 1;
          hits[t][i] += seen[i].load();
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
  for (int t = 0; t < kCallers; ++t) {
    for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[t][i], kCalls);
  }
}

// A call nested in a chunk runs inline as one range on that chunk's
// thread: on a worker, and on the caller while it runs its own chunk.
TEST(ForkJoinTest, CallNestedInAChunkRunsInline) {
  DeviceGuard parallel(Device::kParallel);
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> caller_chunks{0};
  std::atomic<int> bad{0};
  pool.ParallelForRange(8, [&](int64_t, int64_t) {
    const std::thread::id self = std::this_thread::get_id();
    if (self == caller) caller_chunks += 1;
    if (pool.Chunks(100) != 1) bad += 1;
    int ranges = 0;
    pool.ParallelForRange(100, [&](int64_t begin, int64_t end) {
      ranges += 1;
      if (begin != 0 || end != 100 || std::this_thread::get_id() != self) {
        bad += 1;
      }
    });
    if (ranges != 1) bad += 1;
  });
  EXPECT_GE(caller_chunks.load(), 1);
  EXPECT_EQ(bad.load(), 0);
  // Back outside the chunk, the caller fans out again.
  EXPECT_EQ(pool.Chunks(100), 4);
}

TEST(ForkJoinTest, ExceptionInAChunkReachesTheCallerAfterAllChunksRan) {
  DeviceGuard parallel(Device::kParallel);
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelForRange(4,
                                     [&](int64_t begin, int64_t) {
                                       ran += 1;
                                       if (begin == 2) {
                                         throw std::runtime_error("chunk 2");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
}

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, FifoPushPop) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueueTest, TryPushRefusesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: backpressure, not growth
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueueTest, BlockedPushResumesWhenConsumerPops) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // blocks until the pop below
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still parked in backpressure
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
}

TEST(BoundedQueueTest, CloseRefusesPushesButDrainsBuffered) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // refused, NOT enqueued
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // buffered items survive the close
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));  // closed and drained
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    int v = 0;
    EXPECT_FALSE(q.Pop(&v));  // wakes with "drained" on Close
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
  EXPECT_TRUE(done.load());
}

TEST(BoundedQueueTest, PopBatchCapsAtMaxAndAppendsInOrder) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<int> out = {0};  // appended to, never cleared
  EXPECT_EQ(q.PopBatch(3, &out), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.PopBatch(8, &out), 2u);  // takes what is queued, no wait
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, PopBatchWakesOnPush) {
  BoundedQueue<int> q(4);
  std::vector<int> out;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(q.Push(9));
  });
  EXPECT_EQ(q.PopBatch(4, &out), 1u);  // blocks until the push
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{9}));
}

TEST(BoundedQueueTest, CloseHandsOutBufferedBatchesThenZero) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(2, &out), 2u);
  EXPECT_EQ(q.PopBatch(2, &out), 1u);
  EXPECT_EQ(q.PopBatch(2, &out), 0u);  // closed and drained: no block
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedQueueTest, PopBatchReleasesEveryBlockedProducer) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));
  std::vector<std::thread> producers;
  for (int i = 0; i < 2; ++i) {
    producers.emplace_back([&q, i] { EXPECT_TRUE(q.Push(10 + i)); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(2, &out), 2u);  // frees two slots at once
  // Both parked producers must get in without any further pop.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (q.size() < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(q.size(), 2u);
  q.Close();  // unblocks a stuck producer so the joins below return
  for (auto& t : producers) t.join();
}

TEST(BoundedQueueTest, PushAllBlocksWhileFullAndResumes) {
  BoundedQueue<int> q(4);
  std::vector<int> items(10);
  for (int i = 0; i < 10; ++i) items[i] = i;
  std::atomic<bool> returned{false};
  size_t admitted = 0;
  std::thread producer([&] {
    admitted = q.PushAll(items.data(), items.size());
    returned.store(true);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (q.size() < 4 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.size(), 4u);        // filled to capacity, never past it
  EXPECT_FALSE(returned.load());  // parked in backpressure
  for (int i = 0; i < 10; ++i) {
    int v = -1;
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);  // FIFO across the chunks
  }
  producer.join();
  EXPECT_EQ(admitted, 10u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, PushAllReturnsAdmittedCountWhenClosedMidCall) {
  BoundedQueue<std::string> q(3);
  std::vector<std::string> items;
  for (int i = 0; i < 10; ++i) items.push_back("item" + std::to_string(i));
  size_t admitted = 99;
  std::thread producer(
      [&] { admitted = q.PushAll(items.data(), items.size()); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (q.size() < 3 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();  // lands while the producer waits for room
  producer.join();
  EXPECT_EQ(admitted, 3u);
  // The admitted prefix stays poppable; the refused rest was not moved.
  for (int i = 0; i < 3; ++i) {
    std::string v;
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, "item" + std::to_string(i));
  }
  std::string v;
  EXPECT_FALSE(q.Pop(&v));
  for (int i = 3; i < 10; ++i) EXPECT_EQ(items[i], "item" + std::to_string(i));
  EXPECT_EQ(q.PushAll(items.data(), items.size()), 0u);  // closed: none
}

TEST(BoundedQueueTest, PushAllWakesBlockedPopBatch) {
  BoundedQueue<int> q(8);
  std::vector<int> out;
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.PopBatch(8, &out), 3u);  // the whole chunk, one wake
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  int items[] = {7, 8, 9};
  EXPECT_EQ(q.PushAll(items, 3), 3u);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!popped.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(popped.load());  // woken by the push, not by the Close below
  q.Close();  // unblocks a consumer that missed the wake so join returns
  consumer.join();
  EXPECT_EQ(out, (std::vector<int>{7, 8, 9}));
}

TEST(BoundedQueueTest, UnboundedByDefault) {
  BoundedQueue<int> q;
  EXPECT_EQ(q.capacity(), BoundedQueue<int>::kUnbounded);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(q.TryPush(i));
  EXPECT_EQ(q.size(), 1000u);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker tracker;
  tracker.Allocate(100);
  tracker.Allocate(50);
  tracker.Release(100);
  tracker.Allocate(10);
  EXPECT_EQ(tracker.current_bytes(), 60);
  EXPECT_EQ(tracker.peak_bytes(), 150);
  tracker.Reset();
  EXPECT_EQ(tracker.peak_bytes(), 0);
}

TEST(MemoryTest, RssIsPositive) { EXPECT_GT(CurrentRssBytes(), 0); }

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0 * 0.99);
}

}  // namespace
}  // namespace geotorch
