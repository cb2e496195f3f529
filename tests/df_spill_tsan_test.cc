// ThreadSanitizer stress for the out-of-core DataFrame layer: reader
// threads pinning and scanning partitions race budget-driven evictions
// triggered by other threads' admissions, plus frame destruction racing
// in-flight spills (the Unregister/evicting_ handshake). The `tsan`
// preset runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "df/dataframe.h"
#include "df/partition_store.h"

namespace geotorch::df {
namespace {

constexpr const char* kSpillDir = "gtdf_tsan_spill";

class DfSpillTsanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = PartitionStore::Global().options();
    PartitionStore::Options opts;
    opts.resident_budget_bytes = 16 << 10;  // 16 KB: constant churn
    opts.spill_dir = kSpillDir;
    PartitionStore::Global().Configure(opts);
  }
  void TearDown() override {
    PartitionStore::Global().Configure(saved_);
    std::error_code ec;
    std::filesystem::remove_all(kSpillDir, ec);
  }

 private:
  PartitionStore::Options saved_;
};

DataFrame MakeFrame(int64_t rows, int partitions, int64_t salt) {
  std::vector<int64_t> ids(rows);
  std::vector<double> values(rows);
  for (int64_t i = 0; i < rows; ++i) {
    ids[i] = i + salt;
    values[i] = static_cast<double>(i + salt) * 0.25;
  }
  return DataFrame::FromColumns(
             {{"id", Column::FromInt64s(std::move(ids))},
              {"value", Column::FromDoubles(std::move(values))}})
      .Repartition(partitions);
}

int64_t ExpectedIdSum(int64_t rows, int64_t salt) {
  return rows * (rows - 1) / 2 + rows * salt;
}

// Reader threads pin and scan a shared frame while a churn thread keeps
// admitting fresh partitions, forcing the store to evict the readers'
// partitions between (never during) their pins.
TEST_F(DfSpillTsanTest, ReadersRaceEviction) {
  constexpr int64_t kRows = 600;
  constexpr int kPartitions = 6;
  DataFrame frame = MakeFrame(kRows, kPartitions, 0);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> errors{0};

  std::thread churn([&] {
    for (int64_t salt = 1; !stop.load(std::memory_order_relaxed); ++salt) {
      DataFrame junk = MakeFrame(200, 2, salt * 1000);
      if (junk.NumRows() != 200) errors.fetch_add(1);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 40; ++iter) {
        int64_t sum = 0;
        for (int pi = 0; pi < kPartitions; ++pi) {
          const Partition& part =
              frame.partition((pi + t) % kPartitions);
          Partition::Pin pin(part);
          const auto ids = part.column(0).int64s();
          for (int64_t v : ids) sum += v;
        }
        if (sum != ExpectedIdSum(kRows, 0)) errors.fetch_add(1);
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(PartitionStore::Global().GetStats().fault_count, 0);
}

// ForEachPartition (pool-parallel, auto-pinning) from several client
// threads over one frame, racing the same churn-driven evictions.
TEST_F(DfSpillTsanTest, ParallelScansRaceEviction) {
  constexpr int64_t kRows = 500;
  DataFrame frame = MakeFrame(kRows, 5, 7);

  std::atomic<int64_t> errors{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      for (int iter = 0; iter < 20; ++iter) {
        std::atomic<int64_t> sum{0};
        frame.ForEachPartition([&](const Partition& part, int) {
          int64_t local = 0;
          for (int64_t v : part.column(0).int64s()) local += v;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
        if (sum.load() != ExpectedIdSum(kRows, 7)) errors.fetch_add(1);
        DataFrame junk = MakeFrame(150, 2, iter * 31 + 1);
        (void)junk;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(errors.load(), 0);
}

// Frames created and destroyed concurrently on every thread: each
// destruction can race another thread's EnforceBudget that has just
// selected one of the dying partitions as a victim — the Unregister
// handshake must make that safe.
TEST_F(DfSpillTsanTest, DestructionRacesEviction) {
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 30; ++iter) {
        const int64_t salt = t * 10000 + iter * 100;
        DataFrame frame = MakeFrame(300, 3, salt);
        int64_t sum = 0;
        for (int pi = 0; pi < frame.num_partitions(); ++pi) {
          const Partition& part = frame.partition(pi);
          Partition::Pin pin(part);
          for (int64_t v : part.column(0).int64s()) sum += v;
        }
        if (sum != ExpectedIdSum(300, salt)) errors.fetch_add(1);
        // frame dies here, possibly mid-eviction.
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  const PartitionStore::Stats stats = PartitionStore::Global().GetStats();
  EXPECT_GT(stats.spill_count, 0);
}

}  // namespace
}  // namespace geotorch::df
