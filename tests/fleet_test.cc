// The sharded, replicated serving fleet: routing must answer every
// request exactly once (bitwise equal to a direct forward, on every
// replica), tenant quotas must reject at the router while other
// tenants keep flowing, saturation of every replica must propagate as
// OutOfRange backpressure, and hot reload must swap checkpoints under
// sustained concurrent load with every in-flight response bitwise-
// consistent with exactly one checkpoint version — never a torn mix —
// while a corrupt checkpoint fails cleanly and leaves the old model
// serving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "io/checkpoint.h"
#include "models/grid_models.h"
#include "nn/layers.h"
#include "serve/adapters.h"
#include "serve/config.h"
#include "serve/engine.h"
#include "serve/fleet.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "tests/temp_path.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace io = ::geotorch::io;
namespace data = ::geotorch::data;
namespace models = ::geotorch::models;
namespace nn = ::geotorch::nn;
namespace serve = ::geotorch::serve;
namespace ts = ::geotorch::tensor;
using ::geotorch::ScopedTempPath;

std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  if (t.numel() > 0) {
    std::memcpy(bits.data(), t.data(), t.numel() * sizeof(uint32_t));
  }
  return bits;
}

serve::FleetOptions FastFleet(int replicas) {
  serve::FleetOptions opts;
  opts.replicas = replicas;
  opts.engine.max_batch = 4;
  opts.engine.max_delay_us = 100;
  opts.engine.max_queue = 256;
  opts.engine.warmup_batches = 0;
  return opts;
}

// An echo snapshot factory: forward is the identity, so every client
// can verify it got exactly its own sample back from whichever replica
// served it. Not reloadable (no load hook).
serve::SnapshotFactory EchoFactory() {
  return [] {
    serve::ModelSnapshot snap;
    snap.forward = [](const data::Batch& batch) { return batch.x; };
    return snap;
  };
}

data::Sample MakeSample(int64_t dim, float v) {
  data::Sample s;
  s.x = ts::Tensor::Full({dim}, v);
  return s;
}

// --- FleetOptions::FromEnv --------------------------------------------------

struct EnvVarGuard {
  explicit EnvVarGuard(std::vector<const char*> names)
      : names_(std::move(names)) {
    for (const char* n : names_) unsetenv(n);
  }
  ~EnvVarGuard() {
    for (const char* n : names_) unsetenv(n);
  }
  std::vector<const char*> names_;
};

TEST(FleetOptionsTest, FromEnvDefaultsWhenUnset) {
  EnvVarGuard guard({"GEOTORCH_FLEET_REPLICAS", "GEOTORCH_FLEET_TENANT_QPS",
                     "GEOTORCH_FLEET_TENANT_BURST"});
  const serve::FleetOptions opts = serve::FleetOptions::FromEnv();
  const serve::FleetOptions defaults;
  EXPECT_EQ(opts.replicas, defaults.replicas);
  EXPECT_EQ(opts.tenant_qps, defaults.tenant_qps);
  EXPECT_EQ(opts.tenant_burst, defaults.tenant_burst);
}

TEST(FleetOptionsTest, FromEnvParsesClampsAndNestsEngineOptions) {
  EnvVarGuard guard({"GEOTORCH_FLEET_REPLICAS", "GEOTORCH_FLEET_TENANT_QPS",
                     "GEOTORCH_FLEET_TENANT_BURST",
                     "GEOTORCH_SERVE_MAX_BATCH"});
  setenv("GEOTORCH_FLEET_REPLICAS", "0", 1);      // clamped to 1
  setenv("GEOTORCH_FLEET_TENANT_QPS", "50", 1);
  setenv("GEOTORCH_FLEET_TENANT_BURST", "-3", 1);  // clamped to 0
  setenv("GEOTORCH_SERVE_MAX_BATCH", "32", 1);     // nested engine family
  const serve::FleetOptions opts = serve::FleetOptions::FromEnv();
  EXPECT_EQ(opts.replicas, 1);
  EXPECT_EQ(opts.tenant_qps, 50);
  EXPECT_EQ(opts.tenant_burst, 0);
  EXPECT_EQ(opts.engine.max_batch, 32);
}

// --- Routing ----------------------------------------------------------------

TEST(FleetTest, UnknownModelIsNotFound) {
  serve::Fleet fleet(FastFleet(1));
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{4}, {}}).ok());
  auto r = fleet.Submit("nope", "tenant", MakeSample(4, 1.0f));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), geotorch::StatusCode::kNotFound);
}

TEST(FleetTest, DuplicateModelNameIsAlreadyExists) {
  serve::Fleet fleet(FastFleet(1));
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{4}, {}}).ok());
  auto s =
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{4}, {}});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), geotorch::StatusCode::kAlreadyExists);
}

TEST(FleetTest, SequentialSubmitsRoundRobinAcrossIdleReplicas) {
  // One request in flight at a time: every replica is idle at each
  // routing decision, so the round-robin tie-break must spread the
  // stream exactly evenly.
  serve::Fleet fleet(FastFleet(3));
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{4}, {}}).ok());
  for (int i = 0; i < 9; ++i) {
    auto r = fleet.Submit("echo", "t", MakeSample(4, static_cast<float>(i)));
    ASSERT_TRUE(r.ok());
  }
  const std::vector<serve::EngineStats> stats = fleet.ReplicaStats("echo");
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(fleet.stats().routed, 9);
}

TEST(FleetTest, EveryRequestAnsweredExactlyOnceAcrossThreads) {
  serve::Fleet fleet(FastFleet(3));
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{4}, {}}).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&fleet, &mismatches, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        data::Sample s = MakeSample(4, static_cast<float>(t * 1000 + i));
        auto r = fleet.Submit("echo", "tenant-" + std::to_string(t), s);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else if (Bits(*r) != Bits(s.x)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Exactly once: the engines collectively accepted every routed
  // request, and nothing was double-submitted.
  int64_t engine_requests = 0;
  for (const auto& s : fleet.ReplicaStats("echo")) {
    engine_requests += s.requests;
  }
  EXPECT_EQ(engine_requests, kThreads * kPerThread);
  EXPECT_EQ(fleet.stats().routed, kThreads * kPerThread);
  EXPECT_EQ(fleet.stats().tenant_rejected, 0);
}

// A forward that blocks until the test opens a gate; lets the test
// wedge chosen replicas deterministically.
class Gate {
 public:
  ts::Tensor Hold(const data::Batch& batch) {
    in_forward_.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
    return batch.x;
  }
  void WaitUntilInForward(int n) {
    while (in_forward_.load() < n) std::this_thread::yield();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> in_forward_{0};
};

TEST(FleetTest, LeastLoadedRoutingSteersAroundABusyReplica) {
  // Wedge one replica in a long forward; every subsequent sequential
  // submit must be routed to the other (its outstanding count is 0 vs
  // the wedged replica's 1).
  auto gate = std::make_shared<Gate>();
  serve::FleetOptions opts = FastFleet(2);
  opts.engine.max_batch = 1;
  opts.engine.max_delay_us = 0;
  serve::Fleet fleet(opts);
  // Value 42 blocks on the gate; everything else echoes immediately.
  ASSERT_TRUE(fleet
                  .AddModel("m",
                            [gate] {
                              serve::ModelSnapshot snap;
                              snap.forward =
                                  [gate](const data::Batch& batch) {
                                    if (batch.x.data()[0] == 42.0f) {
                                      return gate->Hold(batch);
                                    }
                                    return batch.x;
                                  };
                              return snap;
                            },
                            serve::SampleSpec{{2}, {}})
                  .ok());

  std::thread wedged([&fleet] {
    auto r = fleet.Submit("m", "t", MakeSample(2, 42.0f));
    EXPECT_TRUE(r.ok());
  });
  gate->WaitUntilInForward(1);

  constexpr int kFollowUps = 10;
  for (int i = 0; i < kFollowUps; ++i) {
    auto r = fleet.Submit("m", "t", MakeSample(2, static_cast<float>(i)));
    ASSERT_TRUE(r.ok());
  }
  gate->Open();
  wedged.join();

  // One replica served exactly the wedged request, the other all of
  // the follow-ups.
  std::vector<int64_t> per_replica;
  for (const auto& s : fleet.ReplicaStats("m")) {
    per_replica.push_back(s.requests);
  }
  ASSERT_EQ(per_replica.size(), 2u);
  std::sort(per_replica.begin(), per_replica.end());
  EXPECT_EQ(per_replica[0], 1);
  EXPECT_EQ(per_replica[1], kFollowUps);
}

// --- Tenant quotas ----------------------------------------------------------

TEST(FleetTest, TenantQuotaRejectsBeyondBurstAndIsPerTenant) {
  serve::FleetOptions opts = FastFleet(1);
  opts.tenant_qps = 1;
  opts.tenant_burst = 2;
  serve::Fleet fleet(opts);
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{2}, {}}).ok());

  // Burst capacity: two immediate requests pass, the third (arriving
  // well inside the 1s refill window) is rejected at the router.
  EXPECT_TRUE(fleet.Submit("echo", "alice", MakeSample(2, 1.0f)).ok());
  EXPECT_TRUE(fleet.Submit("echo", "alice", MakeSample(2, 2.0f)).ok());
  auto rejected = fleet.Submit("echo", "alice", MakeSample(2, 3.0f));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            geotorch::StatusCode::kResourceExhausted);

  // Quotas are per tenant: bob's bucket is untouched.
  EXPECT_TRUE(fleet.Submit("echo", "bob", MakeSample(2, 4.0f)).ok());

  const serve::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.tenant_rejected, 1);
  EXPECT_EQ(stats.routed, 3);  // rejected submits are not routed
}

TEST(FleetTest, ZeroQpsDisablesQuotas) {
  serve::Fleet fleet(FastFleet(1));  // tenant_qps = 0
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{2}, {}}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        fleet.Submit("echo", "hammer", MakeSample(2, 1.0f)).ok());
  }
  EXPECT_EQ(fleet.stats().tenant_rejected, 0);
}

// --- Backpressure -----------------------------------------------------------

TEST(FleetTest, BackpressurePropagatesWhenAllReplicasSaturate) {
  auto gate = std::make_shared<Gate>();
  serve::FleetOptions opts = FastFleet(2);
  opts.engine.max_batch = 1;
  opts.engine.max_delay_us = 0;
  opts.engine.max_queue = 1;
  serve::Fleet fleet(opts);
  ASSERT_TRUE(fleet
                  .AddModel("m",
                            [gate] {
                              serve::ModelSnapshot snap;
                              snap.forward =
                                  [gate](const data::Batch& batch) {
                                    return gate->Hold(batch);
                                  };
                              return snap;
                            },
                            serve::SampleSpec{{2}, {}})
                  .ok());

  // Two submits wedge one batch per replica (least-loaded routing
  // spreads them); two more fill each replica's 1-deep queue.
  std::vector<std::thread> held;
  for (int i = 0; i < 2; ++i) {
    held.emplace_back([&fleet] {
      EXPECT_TRUE(fleet.Submit("m", "t", MakeSample(2, 1.0f)).ok());
    });
  }
  gate->WaitUntilInForward(2);
  for (int i = 0; i < 2; ++i) {
    held.emplace_back([&fleet] {
      EXPECT_TRUE(fleet.Submit("m", "t", MakeSample(2, 2.0f)).ok());
    });
  }
  int64_t accepted = 0;
  while (accepted < 4) {
    accepted = 0;
    for (const auto& s : fleet.ReplicaStats("m")) accepted += s.requests;
    std::this_thread::yield();
  }

  // Every queue is full: the router tries both replicas, both reject,
  // and the caller sees OutOfRange — backpressure, not a deadlock.
  auto r = fleet.Submit("m", "t", MakeSample(2, 3.0f));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), geotorch::StatusCode::kOutOfRange);

  gate->Open();
  for (auto& t : held) t.join();
}

// --- Engine-vs-direct bitwise across replicas on a real model ---------------

TEST(FleetTest, ReplicasServeBitwiseIdenticalToDirectForward) {
  models::GridModelConfig mc;
  mc.channels = 1;
  mc.height = 8;
  mc.width = 8;
  mc.len_closeness = 3;
  mc.len_period = 2;
  mc.len_trend = 1;
  mc.hidden = 8;
  mc.seed = 42;

  serve::FleetOptions opts = FastFleet(2);
  opts.engine.max_delay_us = 1000;  // encourage real coalescing
  serve::Fleet fleet(opts);
  ASSERT_TRUE(fleet
                  .AddModel("grid",
                            [mc] {
                              auto model =
                                  std::make_shared<models::PeriodicalCnn>(mc);
                              serve::ModelSnapshot snap;
                              snap.owner = model;
                              snap.forward = serve::GridForward(*model);
                              return snap;
                            },
                            serve::SampleSpec{
                                {3, 8, 8}, {{2, 8, 8}, {1, 8, 8}}})
                  .ok());

  models::PeriodicalCnn direct(mc);  // same seed => same weights
  direct.SetTraining(false);

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<data::Sample> samples;
  std::vector<std::vector<uint32_t>> expected;
  geotorch::Rng rng(7);
  for (int i = 0; i < kClients * kPerClient; ++i) {
    data::Sample s;
    s.x = ts::Tensor::Uninitialized({3, 8, 8});
    for (int64_t j = 0; j < s.x.numel(); ++j) {
      s.x.data()[j] = static_cast<float>(rng.Uniform());
    }
    s.extras.push_back(ts::Tensor::Full({2, 8, 8}, 0.25f + 0.01f * i));
    s.extras.push_back(ts::Tensor::Full({1, 8, 8}, 0.75f - 0.01f * i));
    data::Batch one;
    one.x = s.x.Reshape({1, 3, 8, 8});
    one.extras.push_back(s.extras[0].Reshape({1, 2, 8, 8}));
    one.extras.push_back(s.extras[1].Reshape({1, 1, 8, 8}));
    one.size = 1;
    ag::NoGradGuard no_grad;
    ts::Tensor out = direct.Forward(one).value();
    ts::Shape row(out.shape().begin() + 1, out.shape().end());
    expected.push_back(Bits(out.Reshape(row)));
    samples.push_back(std::move(s));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = c * kPerClient + i;
        auto r = fleet.Submit("grid", "t", samples[idx]);
        if (!r.ok() || Bits(*r) != expected[idx]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Both replicas took part and answered bitwise-identically.
  for (const auto& s : fleet.ReplicaStats("grid")) EXPECT_GT(s.requests, 0);
}

// --- Hot reload -------------------------------------------------------------

// A reloadable Linear snapshot factory: each snapshot owns a fresh
// Linear(8, 8) whose weights come from a GTCP checkpoint; load wires
// io::LoadStateDict plus the SetPrecision re-derivation of any packed
// low-precision panels (a no-op in f32, but the pattern production
// factories must follow).
serve::SnapshotFactory LinearFactory(const std::string& initial_ckpt) {
  return [initial_ckpt] {
    geotorch::Rng rng(12345);
    auto model = std::make_shared<nn::Linear>(8, 8, rng);
    serve::ModelSnapshot snap;
    snap.owner = model;
    snap.forward = serve::UnaryForward(*model);
    snap.load = [model](const std::string& path) {
      geotorch::Status st = io::LoadStateDict(*model, path);
      if (st.ok()) model->SetPrecision(model->precision());
      return st;
    };
    if (!initial_ckpt.empty()) {
      GEO_CHECK(snap.load(initial_ckpt).ok());
    }
    return snap;
  };
}

void WriteLinearCheckpoint(uint64_t seed, const std::string& path) {
  geotorch::Rng rng(seed);
  nn::Linear model(8, 8, rng);
  GEO_CHECK(io::SaveStateDict(model, path).ok());
}

// Ground truth: the bitwise output of a direct eval forward of the
// checkpointed Linear on `sample`, as a {8} row.
std::vector<uint32_t> DirectLinearRow(const std::string& ckpt,
                                      const data::Sample& sample) {
  geotorch::Rng rng(999);
  nn::Linear model(8, 8, rng);
  GEO_CHECK(io::LoadStateDict(model, ckpt).ok());
  auto forward = serve::UnaryForward(model);
  data::Batch one;
  one.x = sample.x.Reshape({1, 8});
  one.size = 1;
  ts::Tensor out = forward(one);
  return Bits(out.Reshape({8}));
}

TEST(FleetTest, HotReloadUnderLoadServesExactlyOneVersionPerResponse) {
  // The acceptance scenario: >= 1000 requests served across a
  // checkpoint swap with zero dropped responses and zero torn ones —
  // every response is bitwise equal to version 1's output or version
  // 2's output, and every response issued after Reload() returned is
  // version 2's.
  const ScopedTempPath ckpt_v1("fleet_v1.ckpt");
  WriteLinearCheckpoint(1, ckpt_v1);
  const ScopedTempPath ckpt_v2("fleet_v2.ckpt");
  WriteLinearCheckpoint(2, ckpt_v2);

  data::Sample sample = MakeSample(8, 0.0f);
  for (int64_t i = 0; i < 8; ++i) {
    sample.x.data()[i] = 0.125f * static_cast<float>(i + 1);
  }
  const std::vector<uint32_t> want_v1 = DirectLinearRow(ckpt_v1, sample);
  const std::vector<uint32_t> want_v2 = DirectLinearRow(ckpt_v2, sample);
  ASSERT_NE(want_v1, want_v2);  // the swap must be observable

  serve::FleetOptions opts = FastFleet(2);
  opts.engine.max_batch = 8;
  opts.engine.max_delay_us = 50;
  serve::Fleet fleet(opts);
  ASSERT_TRUE(fleet
                  .AddModel("linear", LinearFactory(ckpt_v1),
                            serve::SampleSpec{{8}, {}})
                  .ok());
  ASSERT_TRUE(fleet.ModelVersion("linear").ok());
  EXPECT_EQ(*fleet.ModelVersion("linear"), 1);

  constexpr int kClients = 4;
  constexpr int kTarget = 1200;
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> dropped{0};
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> v1_count{0};
  std::atomic<int64_t> v2_count{0};
  std::atomic<int64_t> stale_after_reload{0};
  std::atomic<bool> reload_done{false};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      while (served.load(std::memory_order_relaxed) < kTarget) {
        const bool after_reload =
            reload_done.load(std::memory_order_acquire);
        auto r = fleet.Submit("linear", "t", sample);
        if (!r.ok()) {
          dropped.fetch_add(1);
          continue;
        }
        served.fetch_add(1);
        const std::vector<uint32_t> got = Bits(*r);
        if (got == want_v1) {
          v1_count.fetch_add(1);
          // A request submitted after Reload() returned must be served
          // by version 2: the reload drained every replica before
          // returning, so no batch formed afterwards can see v1.
          if (after_reload) stale_after_reload.fetch_add(1);
        } else if (got == want_v2) {
          v2_count.fetch_add(1);
        } else {
          torn.fetch_add(1);
        }
      }
    });
  }

  // Let traffic build, then swap mid-stream.
  while (served.load() < kTarget / 4) std::this_thread::yield();
  ASSERT_TRUE(fleet.Reload("linear", ckpt_v2).ok());
  reload_done.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();

  EXPECT_GE(served.load(), kTarget);
  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(stale_after_reload.load(), 0);
  EXPECT_GT(v1_count.load(), 0);  // traffic flowed before the swap...
  EXPECT_GT(v2_count.load(), 0);  // ...and after it
  EXPECT_EQ(*fleet.ModelVersion("linear"), 2);
  const serve::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.reload_swaps, 2);  // one per replica
  EXPECT_EQ(stats.reload_failures, 0);
}

TEST(FleetTest, CorruptCheckpointReloadFailsCleanlyUnderLoad) {
  // Fault injection: reloads from a truncated file, a bit-flipped
  // file, and a missing file must all fail via Status, leave the
  // version untouched, and keep every concurrent response on the old
  // weights; a subsequent good reload still works.
  const ScopedTempPath ckpt_v1("fleet_f1.ckpt");
  WriteLinearCheckpoint(3, ckpt_v1);
  const ScopedTempPath ckpt_v2("fleet_f2.ckpt");
  WriteLinearCheckpoint(4, ckpt_v2);

  data::Sample sample = MakeSample(8, 0.5f);
  const std::vector<uint32_t> want_v1 = DirectLinearRow(ckpt_v1, sample);
  const std::vector<uint32_t> want_v2 = DirectLinearRow(ckpt_v2, sample);

  // Truncated copy: drop the tail (which also removes the CRC).
  std::string blob;
  {
    std::ifstream in(ckpt_v2, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 16u);
  const ScopedTempPath truncated_path("fleet_truncated.ckpt");
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  }
  // Bit-flipped copy: corrupt one payload byte, CRC catches it.
  std::string flipped = blob;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  const ScopedTempPath flipped_path("fleet_flipped.ckpt");
  {
    std::ofstream out(flipped_path, std::ios::binary);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }

  serve::Fleet fleet(FastFleet(2));
  ASSERT_TRUE(fleet
                  .AddModel("linear", LinearFactory(ckpt_v1),
                            serve::SampleSpec{{8}, {}})
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> wrong{0};
  std::atomic<int64_t> saw_v2{0};
  std::thread client([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = fleet.Submit("linear", "t", sample);
      if (!r.ok()) {
        wrong.fetch_add(1);
        continue;
      }
      const std::vector<uint32_t> got = Bits(*r);
      if (got == want_v2) {
        saw_v2.fetch_add(1);
      } else if (got != want_v1) {
        wrong.fetch_add(1);
      }
    }
  });

  EXPECT_FALSE(fleet.Reload("linear", truncated_path).ok());
  EXPECT_FALSE(fleet.Reload("linear", flipped_path).ok());
  EXPECT_FALSE(fleet.Reload("linear", testing::TempDir() +
                                          "/does_not_exist.ckpt")
                   .ok());
  EXPECT_EQ(*fleet.ModelVersion("linear"), 1);
  EXPECT_EQ(fleet.stats().reload_swaps, 0);
  EXPECT_EQ(fleet.stats().reload_failures, 3);
  EXPECT_EQ(saw_v2.load(), 0);  // old model kept serving throughout

  // The failed attempts must not have poisoned anything: a good
  // reload still swaps cleanly.
  ASSERT_TRUE(fleet.Reload("linear", ckpt_v2).ok());
  auto r = fleet.Submit("linear", "t", sample);
  stop.store(true);
  client.join();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Bits(*r), want_v2);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(*fleet.ModelVersion("linear"), 2);
}

TEST(FleetTest, ReloadOfNonReloadableModelIsNotImplemented) {
  serve::Fleet fleet(FastFleet(1));
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{2}, {}}).ok());
  auto s = fleet.Reload("echo", "/tmp/whatever.ckpt");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), geotorch::StatusCode::kNotImplemented);
  EXPECT_EQ(fleet.stats().reload_failures, 1);
}

// --- Transactional state-dict application -----------------------------------

TEST(FleetTest, FailedStateDictLoadLeavesLiveModuleUntouched) {
  // The io-side half of the reload contract: ApplyStateDict validates
  // the whole plan before writing anything, so a checkpoint whose
  // SECOND tensor is bad must not apply its first. (Before this was
  // transactional, 'weight' was overwritten and then the 'bias' error
  // left the module half-updated.)
  geotorch::Rng rng(5);
  nn::Linear model(4, 4, rng);
  std::vector<std::vector<uint32_t>> before;
  for (const auto& [name, p] : model.NamedParameters()) {
    before.push_back(Bits(p.value()));
  }

  io::Checkpoint ckpt;
  ckpt.tensors.emplace_back("weight", ts::Tensor::Full({4, 4}, 7.0f));
  ckpt.tensors.emplace_back("bias", ts::Tensor::Full({5}, 7.0f));  // bad shape
  auto s = io::ApplyStateDict(model, ckpt);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), geotorch::StatusCode::kInvalidArgument);

  std::vector<std::vector<uint32_t>> after;
  for (const auto& [name, p] : model.NamedParameters()) {
    after.push_back(Bits(p.value()));
  }
  EXPECT_EQ(before, after);

  // Same for a missing-parameter strict failure.
  io::Checkpoint missing;
  missing.tensors.emplace_back("weight", ts::Tensor::Full({4, 4}, 9.0f));
  s = io::ApplyStateDict(model, missing);
  ASSERT_FALSE(s.ok());
  after.clear();
  for (const auto& [name, p] : model.NamedParameters()) {
    after.push_back(Bits(p.value()));
  }
  EXPECT_EQ(before, after);
}

// --- Shutdown ---------------------------------------------------------------

TEST(FleetTest, SubmitAfterShutdownFails) {
  serve::Fleet fleet(FastFleet(2));
  ASSERT_TRUE(
      fleet.AddModel("echo", EchoFactory(), serve::SampleSpec{{2}, {}}).ok());
  ASSERT_TRUE(fleet.Submit("echo", "t", MakeSample(2, 1.0f)).ok());
  fleet.Shutdown();
  fleet.Shutdown();  // idempotent
  auto r = fleet.Submit("echo", "t", MakeSample(2, 2.0f));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), geotorch::StatusCode::kInvalidArgument);
}

}  // namespace
