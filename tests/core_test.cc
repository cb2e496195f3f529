#include "core/status.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"
#include "core/env.h"
#include "core/memory.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"

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

TEST(EnvTest, BoolFollowsKillSwitchConvention) {
  ScopedEnv var("GEOTORCH_TEST_ENV_BOOL");
  EXPECT_TRUE(EnvBool("GEOTORCH_TEST_ENV_BOOL", true));
  EXPECT_FALSE(EnvBool("GEOTORCH_TEST_ENV_BOOL", false));
  for (const char* off : {"0", "off", "false"}) {
    var.Set(off);
    EXPECT_FALSE(EnvBool("GEOTORCH_TEST_ENV_BOOL", true)) << off;
  }
  for (const char* on : {"1", "on", "yes", "anything"}) {
    var.Set(on);
    EXPECT_TRUE(EnvBool("GEOTORCH_TEST_ENV_BOOL", false)) << on;
  }
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
