#include "core/storage_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "autograd/ops.h"
#include "core/memory.h"
#include "nn/layers.h"
#include "obs/obs.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace geotorch {
namespace {

namespace ts = ::geotorch::tensor;
namespace ag = ::geotorch::autograd;

// Drains cached blocks so tests do not leak state (pointers, stats
// baselines) into each other.
class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StoragePool::Global().Trim();
    StoragePool::Global().ResetStats();
  }
  void TearDown() override { StoragePool::Global().Trim(); }
};

TEST_F(PoolTest, RecyclesFreedBlockSameClass) {
  float* first = nullptr;
  {
    ts::Tensor a = ts::Tensor::Zeros({1024});
    first = a.data();
  }
  // LIFO free list: the very next same-class allocation gets the block
  // the destructor just returned.
  ts::Tensor b = ts::Tensor::Zeros({1024});
  EXPECT_EQ(b.data(), first);

  const StoragePool::Stats stats = StoragePool::Global().GetStats();
  EXPECT_GE(stats.hits, 1);
  EXPECT_GE(stats.bytes_recycled, 4096);
}

TEST_F(PoolTest, RoundsUpToSizeClassAndAligns) {
  // 1000 floats = 4000 bytes -> 4096-byte class.
  StoragePool::Global().ResetStats();
  {
    ts::Tensor a = ts::Tensor::Zeros({1000});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % 64, 0u);
  }
  // 1024 floats = 4096 bytes -> same class, so the block is reused.
  ts::Tensor b = ts::Tensor::Zeros({1024});
  const StoragePool::Stats stats = StoragePool::Global().GetStats();
  EXPECT_GE(stats.hits, 1);
}

#if defined(__SANITIZE_ADDRESS__)
// A block parked in a free list is poisoned, so ASan reports a write
// through a dangling pointer to it even though the pool still owns it.
TEST_F(PoolTest, WriteToCachedBlockIsUseAfterPoison) {
  volatile float* stale = nullptr;
  {
    ts::Tensor a = ts::Tensor::Zeros({1024});
    stale = a.data();
  }
  EXPECT_DEATH(stale[7] = 1.0f, "use-after-poison");
}
#endif

TEST_F(PoolTest, TrimReleasesCachedBlocks) {
  { ts::Tensor a = ts::Tensor::Zeros({1 << 12}); }
  { ts::Tensor b = ts::Tensor::Zeros({1 << 14}); }
  StoragePool::Stats before = StoragePool::Global().GetStats();
  EXPECT_GT(before.cached_bytes, 0);
  const int64_t freed = StoragePool::Global().Trim();
  EXPECT_EQ(freed, before.cached_bytes);
  StoragePool::Stats after = StoragePool::Global().GetStats();
  EXPECT_EQ(after.cached_bytes, 0);
  EXPECT_EQ(after.cached_blocks, 0);
}

TEST_F(PoolTest, ShardCapEvicts) {
  StoragePool::Global().SetMaxCachedBytesPerShard(1 << 16);  // 64 KiB
  // Free more 16-KiB-class blocks than one shard can hold.
  std::vector<ts::Tensor> live;
  for (int i = 0; i < 8; ++i) live.push_back(ts::Tensor::Zeros({4096}));
  live.clear();
  const StoragePool::Stats stats = StoragePool::Global().GetStats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.cached_bytes, int64_t{1} << 16);
  StoragePool::Global().SetMaxCachedBytesPerShard(128 << 20);
}

TEST_F(PoolTest, PublishGaugesExportsCachedState) {
  obs::Reset();
  { ts::Tensor a = ts::Tensor::Zeros({1024}); }
  StoragePool::Global().PublishGauges();
  bool found_bytes = false;
  for (const auto& [name, value] : obs::GaugeValues()) {
    if (name == "pool.cached_bytes") {
      found_bytes = true;
      EXPECT_GE(value, 4096);
    }
  }
  EXPECT_TRUE(found_bytes);
}

// Logical live-bytes accounting must follow tensors, not pool caching:
// a freed-but-cached block is not live data.
TEST_F(PoolTest, MemoryTrackerCountsTensorsNotCachedBlocks) {
  auto& mt = MemoryTracker::Global();
  const int64_t before = mt.current_bytes();
  {
    ts::Tensor a = ts::Tensor::Zeros({1024});
    EXPECT_EQ(mt.current_bytes() - before, 4096);
  }
  EXPECT_EQ(mt.current_bytes(), before);  // cached in pool, not live
}

// The tentpole acceptance check in miniature: after warm-up, a training
// step should be served almost entirely from the pool.
TEST_F(PoolTest, TrainStepHitRateAfterWarmup) {
  Rng rng(42);
  nn::Linear l1(32, 64, rng);
  nn::Linear l2(64, 10, rng);
  auto params = l1.Parameters();
  for (auto& p : l2.Parameters()) params.push_back(p);
  optim::Adam opt(params, 1e-3f);

  ts::Tensor x = ts::Tensor::Randn({16, 32}, rng);
  ts::Tensor target = ts::Tensor::Randn({16, 10}, rng);

  auto step = [&] {
    opt.ZeroGrad();
    ag::Variable h = ag::Relu(l1.Forward(ag::Variable(x)));
    ag::Variable loss = ag::MseLoss(l2.Forward(h), target);
    loss.Backward();
    opt.Step();
  };

  for (int i = 0; i < 3; ++i) step();  // warm-up fills the free lists

  StoragePool::Global().ResetStats();
  obs::Reset();
  constexpr int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) step();

  const StoragePool::Stats stats = StoragePool::Global().GetStats();
  ASSERT_GT(stats.hits + stats.misses, 0);
  const double hit_rate =
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses);
  EXPECT_GE(hit_rate, 0.9) << "hits=" << stats.hits
                           << " misses=" << stats.misses;
  // Allocations-per-step regression guard: a warm step must not touch
  // the system allocator (no new blocks, no oversize bypasses).
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.bypasses, 0);

  // The same numbers flow through obs counters for dashboards.
  if (obs::Enabled()) {
    EXPECT_EQ(obs::GetCounter("pool.hit")->value(), stats.hits);
    EXPECT_EQ(obs::GetCounter("pool.miss")->value(), stats.misses);
  }
}

// Eager autograd release: backward on a deep chain should hold only the
// active gradient frontier, not one gradient per node.
TEST_F(PoolTest, EagerReleaseBoundsBackwardPeak) {
  // Pool caching would hide releases from malloc but not from the
  // logical tracker, which is what this test reads.
  constexpr int kDepth = 20;
  constexpr int64_t kSide = 128;
  const int64_t buf_bytes = kSide * kSide * 4;

  Rng rng(7);
  ts::Tensor x0 = ts::Tensor::Randn({kSide, kSide}, rng);
  ag::Variable x(x0, /*requires_grad=*/true);

  auto& mt = MemoryTracker::Global();
  ag::Variable y = x;
  for (int i = 0; i < kDepth; ++i) {
    y = ag::Relu(ag::MulScalar(y, 1.01f));
  }
  ag::Variable loss = ag::MeanAll(y);
  const int64_t peak_fwd = mt.peak_bytes();

  loss.Backward();
  const int64_t backward_growth = mt.peak_bytes() - peak_fwd;

  // Without eager release every one of the ~2*kDepth interior nodes
  // keeps its gradient until graph teardown (~40 buffers above the
  // forward peak). With it, only the frontier is live.
  EXPECT_LE(backward_growth, 6 * buf_bytes)
      << "backward held " << backward_growth / buf_bytes
      << " extra buffers; eager release should keep O(1)";
  ASSERT_TRUE(x.has_grad());
  EXPECT_EQ(x.grad().numel(), kSide * kSide);
}

// A released graph must fail loudly on a second Backward rather than
// silently producing wrong gradients.
TEST_F(PoolTest, DoubleBackwardOnReleasedGraphDies) {
  ag::Variable x(ts::Tensor::Full({4}, 2.0f), /*requires_grad=*/true);
  ag::Variable loss = ag::MeanAll(ag::Mul(x, x));
  loss.Backward();
  EXPECT_DEATH(loss.Backward(), "released");
}

}  // namespace
}  // namespace geotorch
