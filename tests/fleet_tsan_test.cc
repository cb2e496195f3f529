// ThreadSanitizer stress for the serving fleet: client threads
// submitting through the least-loaded router while another thread
// hot-reloads the model between weight-panel versions, drains, and
// polls stats — the exact interleaving the snapshot-swap protocol must
// survive. Snapshots share read-only versioned panels (as replicas of
// a real model share prepacked weight buffers), so TSan also watches
// for writes racing the panel reads. The `tsan` preset runs it under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/fleet.h"
#include "tensor/tensor.h"

namespace {

namespace ts = ::geotorch::tensor;
namespace data = ::geotorch::data;
namespace serve = ::geotorch::serve;

constexpr int kVersions = 4;
constexpr int64_t kDim = 8;

// Read-only weight panels, one per "checkpoint version". Every
// snapshot of a given version holds a shared_ptr to the SAME panel —
// replicas share weights read-only, which is precisely what TSan must
// see no writes against while forwards run.
const std::shared_ptr<const std::vector<float>>* Panels() {
  static const auto* panels = [] {
    auto* p = new std::shared_ptr<const std::vector<float>>[kVersions];
    for (int v = 0; v < kVersions; ++v) {
      auto panel = std::make_shared<std::vector<float>>(kDim);
      for (int64_t j = 0; j < kDim; ++j) {
        (*panel)[j] = static_cast<float>(v * 1000);
      }
      p[v] = std::move(panel);
    }
    return p;
  }();
  return panels;
}

// A snapshot whose forward adds its panel to the input. The panel is
// constant per version, so a response row is valid iff every element
// is input + v*1000 for ONE v — a torn swap (half old panel, half new)
// or a read of a panel mid-replacement would show a mixed row.
//
// The load hook parses the version straight out of the "path"
// ("panel:2" -> panels[2]); no file I/O, the fleet's swap protocol is
// what is under test.
serve::SnapshotFactory PanelFactory() {
  return [] {
    auto current = std::make_shared<std::shared_ptr<const std::vector<float>>>(
        Panels()[0]);
    serve::ModelSnapshot snap;
    snap.owner = current;
    snap.forward = [current](const data::Batch& batch) {
      const std::vector<float>& panel = **current;
      ts::Tensor out = ts::Tensor::Uninitialized(batch.x.shape());
      for (int64_t i = 0; i < batch.size; ++i) {
        for (int64_t j = 0; j < kDim; ++j) {
          out.data()[i * kDim + j] =
              batch.x.data()[i * kDim + j] + panel[j];
        }
      }
      return out;
    };
    snap.load = [current](const std::string& path) {
      const std::string prefix = "panel:";
      if (path.rfind(prefix, 0) != 0) {
        return geotorch::Status::InvalidArgument("bad panel path: " + path);
      }
      const int v = std::stoi(path.substr(prefix.size()));
      if (v < 0 || v >= kVersions) {
        return geotorch::Status::InvalidArgument("no such panel version");
      }
      *current = Panels()[v];
      return geotorch::Status::OK();
    };
    return snap;
  };
}

serve::FleetOptions SmallFleet(int replicas) {
  serve::FleetOptions opts;
  opts.replicas = replicas;
  opts.engine.max_batch = 4;
  opts.engine.max_delay_us = 50;
  opts.engine.max_queue = 64;
  opts.engine.warmup_batches = 1;
  return opts;
}

data::Sample MakeSample(float v) {
  data::Sample s;
  s.x = ts::Tensor::Full({kDim}, v);
  return s;
}

// Returns the panel version this response row is consistent with, or
// -1 if the row is torn (mixed versions / not a valid version at all).
int RowVersion(const ts::Tensor& out, float input) {
  const float base = out.data()[0] - input;
  for (int64_t j = 1; j < kDim; ++j) {
    if (out.data()[j] - input != base) return -1;
  }
  const int v = static_cast<int>(base / 1000.0f);
  if (v < 0 || v >= kVersions ||
      base != static_cast<float>(v * 1000)) {
    return -1;
  }
  return v;
}

TEST(FleetTsanTest, SubmitsRaceHotReloadsWithoutTearing) {
  serve::Fleet fleet(SmallFleet(2));
  ASSERT_TRUE(
      fleet.AddModel("m", PanelFactory(), serve::SampleSpec{{kDim}, {}}).ok());

  constexpr int kClients = 6;
  constexpr int kPerClient = 60;
  std::atomic<int> torn{0};
  std::atomic<int> failed{0};
  std::atomic<bool> stop_reloading{false};

  std::thread reloader([&fleet, &stop_reloading] {
    int v = 1;
    while (!stop_reloading.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(fleet.Reload("m", "panel:" + std::to_string(v)).ok());
      v = (v + 1) % kVersions;
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&fleet, &torn, &failed, t] {
      for (int i = 0; i < kPerClient; ++i) {
        const float input = static_cast<float>(t * 100 + i);
        auto r = fleet.Submit("m", "tenant", MakeSample(input));
        if (!r.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (RowVersion(*r, input) < 0) torn.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop_reloading.store(true);
  reloader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(failed.load(), 0);  // queue of 64 never fills at this load
  EXPECT_GT(fleet.stats().reload_swaps, 0);
  EXPECT_EQ(fleet.stats().reload_failures, 0);
}

TEST(FleetTsanTest, RouterStatsAndOutstandingRaceTraffic) {
  serve::Fleet fleet(SmallFleet(3));
  ASSERT_TRUE(
      fleet.AddModel("m", PanelFactory(), serve::SampleSpec{{kDim}, {}}).ok());

  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  std::atomic<bool> stop_polling{false};
  std::thread poller([&fleet, &stop_polling] {
    while (!stop_polling.load(std::memory_order_relaxed)) {
      (void)fleet.stats();
      (void)fleet.Outstanding("m");
      (void)fleet.ReplicaStats("m");
      (void)fleet.ModelVersion("m");
    }
  });

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&fleet, &ok, t] {
      for (int i = 0; i < kPerClient; ++i) {
        auto r =
            fleet.Submit("m", "t" + std::to_string(t % 3),
                         MakeSample(static_cast<float>(i)));
        if (r.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop_polling.store(true);
  poller.join();

  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(fleet.stats().routed, kClients * kPerClient);
}

TEST(FleetTsanTest, ShutdownRacesSubmitsAndReloads) {
  serve::Fleet fleet(SmallFleet(2));
  ASSERT_TRUE(
      fleet.AddModel("m", PanelFactory(), serve::SampleSpec{{kDim}, {}}).ok());

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&fleet, &stop, &torn, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const float input = static_cast<float>(t * 1000 + i++);
        auto r = fleet.Submit("m", "tenant", MakeSample(input));
        // After Shutdown wins the race, submits fail — that's fine;
        // what must never happen is a torn success.
        if (r.ok() && RowVersion(*r, input) < 0) torn.fetch_add(1);
      }
    });
  }
  std::thread reloader([&fleet, &stop] {
    int v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Reload may fail once Shutdown drained the engines; only the
      // data race matters here.
      (void)fleet.Reload("m", "panel:" + std::to_string(v));
      v = (v + 1) % kVersions;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fleet.Shutdown();
  stop.store(true);
  for (auto& c : clients) c.join();
  reloader.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
