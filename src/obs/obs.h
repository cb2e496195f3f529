#ifndef GEOTORCH_OBS_OBS_H_
#define GEOTORCH_OBS_OBS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// Low-overhead observability: monotonic counters, log2-bucket
/// histograms, and RAII trace spans aggregated per thread and exported
/// as JSON (DESIGN.md §6). Instrumentation sites use the GEO_OBS_*
/// macros below, which short-circuit on a single relaxed atomic load
/// when observability is disabled at runtime (SetEnabled(false) or
/// GEOTORCH_OBS=0 in the environment).
/// The fast path is lock-free for counters/histograms (relaxed atomics)
/// and takes one uncontended per-thread mutex for spans; cross-thread
/// merging happens only at export time.
namespace geotorch::obs {

/// Runtime master switch. Starts enabled unless the GEOTORCH_OBS
/// environment variable is "0", "off", or "false".
bool Enabled();
void SetEnabled(bool on);

/// Monotonic nanoseconds from std::chrono::steady_clock.
int64_t NowNs();

/// A named monotonic counter. Obtained once per call site (interned,
/// never freed) and bumped with a relaxed atomic add.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram over non-negative int64 values with power-of-two
/// buckets: bucket 0 holds v <= 0, bucket i holds 2^(i-1) <= v < 2^i.
/// count/sum/min/max are tracked exactly; buckets give the shape.
class Histogram {
 public:
  static constexpr int kNumBuckets = 48;

  void Record(int64_t v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Minimum / maximum recorded value; 0 when empty.
  int64_t min() const;
  int64_t max() const;
  int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound (exclusive) of bucket i: 0 (the v <= 0 bucket), then
  /// 2, 4, 8, ... — bucket i >= 1 holds 2^(i-1) <= v < 2^i.
  static int64_t BucketBound(int i);

  void Reset();

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
};

/// Interned lookup; the same name always returns the same object.
/// Registration takes a global mutex, so call sites should cache the
/// pointer (the GEO_OBS_* macros do this with a static local).
Counter* GetCounter(const std::string& name);
Histogram* GetHistogram(const std::string& name);

/// Last-write-wins named value (e.g. a memory watermark snapshot).
void SetGauge(const std::string& name, int64_t value);

/// RAII trace span. `name` must have static storage duration (string
/// literals) — records store the pointer, not a copy. Spans nest via a
/// per-thread stack: a span opened while another is open on the same
/// thread becomes its child in the aggregated tree. Spans opened on
/// pool worker threads have no parent and aggregate as roots.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void* state_ = nullptr;  // internal::ThreadSpans*, null when disabled
  int32_t index_ = -1;
  uint64_t generation_ = 0;
};

/// One node of the aggregated span tree: all closed spans with the same
/// (path, name) merge into one node with a count and a total duration.
struct SpanNode {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  std::vector<SpanNode> children;
};

/// Merges every thread's closed spans into one aggregated forest
/// (children sorted by name). Safe to call while other threads record.
std::vector<SpanNode> AggregateSpans();

/// Snapshot of all counters / gauges, sorted by name.
std::vector<std::pair<std::string, int64_t>> CounterValues();
std::vector<std::pair<std::string, int64_t>> GaugeValues();

/// Full JSON document: {"enabled", "counters", "gauges", "histograms",
/// "spans"}. Spans carry count, total_ms, and children.
std::string ExportJson();
/// Writes ExportJson() to `path`; false on I/O failure.
bool WriteJsonFile(const std::string& path);

/// Zeroes every counter/histogram, drops gauges and span records.
/// Open spans survive (they no-op on close). Intended for tests and
/// bench harnesses that want a clean capture window.
void Reset();

}  // namespace geotorch::obs

// --- Instrumentation macros -------------------------------------------------
//
// GEO_OBS_COUNT(name, n)   bump counter `name` by n
// GEO_OBS_HIST(name, v)    record v into histogram `name`
// GEO_OBS_SPAN(var, name)  open a scoped trace span
// GEO_OBS_ON()             expression: instrumentation live right now?
//                          (use to gate timestamp capture at call sites)

#define GEO_OBS_ON() (::geotorch::obs::Enabled())
#define GEO_OBS_COUNT(name, n)                            \
  do {                                                    \
    if (::geotorch::obs::Enabled()) {                     \
      static ::geotorch::obs::Counter* geo_obs_counter_ = \
          ::geotorch::obs::GetCounter(name);              \
      geo_obs_counter_->Add(n);                           \
    }                                                     \
  } while (0)
#define GEO_OBS_HIST(name, v)                                 \
  do {                                                        \
    if (::geotorch::obs::Enabled()) {                         \
      static ::geotorch::obs::Histogram* geo_obs_histogram_ = \
          ::geotorch::obs::GetHistogram(name);                \
      geo_obs_histogram_->Record(v);                          \
    }                                                         \
  } while (0)
#define GEO_OBS_SPAN(var, name) ::geotorch::obs::TraceSpan var(name)

#endif  // GEOTORCH_OBS_OBS_H_
