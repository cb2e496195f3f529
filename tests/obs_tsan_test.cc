// ThreadSanitizer stress for the observability subsystem: worker
// threads hammer counters, histograms, and nested spans while the main
// thread concurrently aggregates, exports JSON, toggles the runtime
// switch, and resets. Under the `tsan` preset any data race fails the
// run.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace obs = ::geotorch::obs;

int main() {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        GEO_OBS_COUNT("tsan.counter", 1);
        GEO_OBS_HIST("tsan.hist", i % 1024);
        obs::SetGauge("tsan.gauge", t * kItersPerThread + i);
        GEO_OBS_SPAN(outer, "tsan_outer");
        if (i % 2 == 0) {
          GEO_OBS_SPAN(inner, "tsan_inner");
        }
      }
    });
  }

  // Reader thread: aggregate + export concurrently with the writers.
  std::thread reader([&stop] {
    size_t exports = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto roots = obs::AggregateSpans();
      const std::string json = obs::ExportJson();
      if (json.empty() || roots.size() > 64) {
        std::fprintf(stderr, "unexpected export state\n");
        std::abort();
      }
      ++exports;
      if (exports % 16 == 0) obs::Reset();
      if (exports % 32 == 0) obs::SetEnabled(false);
      if (exports % 32 == 1) obs::SetEnabled(true);
    }
  });

  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  obs::SetEnabled(true);
  obs::Reset();

  // Sequential sanity pass after the storm: the registry must still
  // record and aggregate correctly.
  obs::GetCounter("tsan.final")->Add(5);
  {
    obs::TraceSpan final_span("tsan_final");
  }
  if (obs::GetCounter("tsan.final")->value() != 5) {
    std::fprintf(stderr, "counter lost writes after stress\n");
    return 1;
  }
  bool found = false;
  for (const auto& n : obs::AggregateSpans()) {
    if (n.name == "tsan_final" && n.count == 1) found = true;
  }
  if (!found) {
    std::fprintf(stderr, "span missing after stress\n");
    return 1;
  }
  std::printf("obs_tsan_test: OK\n");
  return 0;
}
