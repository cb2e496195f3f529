// ThreadSanitizer stress for the fused eval path's shared caches
// (DESIGN.md §13). The serving fleet's model of the world: N client
// threads forward concurrently on one LIVE model — racing to lazily
// build the mutex-guarded BatchNorm eval cache and the Conv2d folded
// weight snapshot on first touch, then sharing them read-only — while a
// reload thread mutates a separate OFFLINE model (LoadNamedParameter,
// SetPrecision) and the clients atomically switch over. Mutation never
// touches a model with in-flight forwards; TSan verifies that the
// cache builds, the version checks, and the swap handshake are clean.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "nn/layers.h"
#include "tensor/tensor.h"

namespace {

namespace ag = ::geotorch::autograd;
namespace nn = ::geotorch::nn;
namespace ts = ::geotorch::tensor;
using ::geotorch::Device;
using ::geotorch::DeviceGuard;

ts::Tensor RandomTensor(std::initializer_list<int64_t> shape, uint64_t seed) {
  ts::Tensor t = ts::Tensor::Uninitialized(shape);
  geotorch::Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i)
    t.flat(i) = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return t;
}

struct Replica {
  explicit Replica(uint64_t seed) {
    geotorch::Rng rng(seed);
    seq.Add(std::make_unique<nn::Conv2d>(3, 8, 3, rng, 1, 1));
    seq.Add(std::make_unique<nn::BatchNorm2d>(8));
    seq.Add(std::make_unique<nn::ReluLayer>());
    seq.Add(std::make_unique<nn::Conv2d>(8, 4, 1, rng));
    seq.SetTraining(true);
    ag::Variable warm(RandomTensor({2, 3, 8, 8}, seed + 1));
    (void)seq.Forward(warm);  // move the BN running stats off init
    seq.SetTraining(false);
  }
  nn::Sequential seq;
  // Quiescence latch: clients hold it shared for the duration of a
  // forward; the reloader takes it exclusive before mutating, which is
  // exactly the "no in-flight forwards during mutation" contract. On
  // the published replica the exclusive acquisition only ever happens
  // after the pointer swap has steered new requests away.
  std::shared_mutex gate;
};

}  // namespace

int main() {
  // Every thread of this test runs its forwards serially, as a serving
  // batcher does.
  DeviceGuard serial(Device::kSerial);

  auto live = std::make_unique<Replica>(11);
  auto offline = std::make_unique<Replica>(12);

  // The published model pointer: clients load it per request, the
  // reloader stores it after finishing offline mutation. Both replicas
  // outlive every thread, so a plain atomic pointer is the whole
  // copy-on-swap contract in miniature.
  std::atomic<Replica*> published(live.get());
  std::atomic<bool> stop(false);
  std::atomic<int64_t> forwards(0);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      DeviceGuard serial(Device::kSerial);
      ag::NoGradGuard no_grad;
      const ts::Tensor x = RandomTensor({1, 3, 8, 8}, 100 + t);
      while (!stop.load(std::memory_order_acquire)) {
        Replica* model = published.load();
        std::shared_lock<std::shared_mutex> in_flight(model->gate);
        ag::Variable y = model->seq.Forward(ag::Variable(x));
        if (y.value().numel() <= 0) std::abort();
        forwards.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Reloader: mutate whichever replica is NOT published, then swap.
  std::thread reloader([&] {
    DeviceGuard serial(Device::kSerial);
    Replica* a = live.get();
    Replica* b = offline.get();
    for (int round = 0; round < 20; ++round) {
      Replica* off = (published.load() == a) ? b : a;
      {
        // Drain stragglers that grabbed the pointer before the last
        // swap, then mutate with the replica provably offline.
        std::unique_lock<std::shared_mutex> quiesce(off->gate);
        const ts::Tensor neww = RandomTensor({8, 3, 3, 3}, 200 + round);
        if (!off->seq.LoadNamedParameter("layer0.weight", neww).ok())
          std::abort();
        // Exercise the precision flip path on the offline copy too: it
        // bumps the state version and forces a folded-cache rebuild
        // with requantization on the next fused forward.
        off->seq.SetPrecision(round % 2 == 0 ? nn::Precision::kInt8
                                             : nn::Precision::kF32);
      }
      published.store(off);
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });

  reloader.join();
  for (auto& c : clients) c.join();

  if (forwards.load() <= 0) return 1;
  std::printf("fusion_tsan_test: %lld fused forwards across %d swaps OK\n",
              static_cast<long long>(forwards.load()), 20);
  return 0;
}
