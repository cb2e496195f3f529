#include "stream/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

#include "core/check.h"
#include "obs/obs.h"

namespace geotorch::stream {
namespace {

// Most events the aggregator takes from the ring per lock round trip;
// also the unit of its stream.aggregate span. At 256 the lock and the
// span are a fraction of a ns per event, and PopBatch never waits for a
// batch to fill, so the size adds no latency.
constexpr size_t kAggregateBatch = 256;

}  // namespace

Pipeline::Pipeline(EventSource* source, serve::Fleet* fleet,
                   spatial::GridPartitioner grid, std::string model,
                   StreamOptions options)
    : source_(source),
      fleet_(fleet),
      model_(std::move(model)),
      options_(options),
      event_ring_(static_cast<size_t>(options_.queue)),
      window_ring_(static_cast<size_t>(options_.window_queue)) {
  GEO_CHECK(source_ != nullptr);
  GEO_CHECK(fleet_ != nullptr);

  WindowAggregator::Options agg_opts;
  agg_opts.window_sec = options_.window_sec;
  agg_opts.slide_sec = options_.EffectiveSlide();
  aggregator_ =
      std::make_unique<WindowAggregator>(std::move(grid), agg_opts);

  OnlinePredictor::Options pred_opts;
  pred_opts.model = model_;
  pred_opts.len_closeness = options_.len_closeness;
  pred_opts.len_period = options_.len_period;
  pred_opts.len_trend = options_.len_trend;
  pred_opts.steps_per_day = options_.steps_per_day;
  pred_opts.deadline_us = options_.predict_timeout_us;
  predictor_ = std::make_unique<OnlinePredictor>(fleet_, pred_opts);
}

Pipeline::~Pipeline() { Stop(); }

void Pipeline::Start() {
  GEO_CHECK(!started_.exchange(true)) << "Start called twice";
  producer_ = std::thread([this] { ProducerLoop(); });
  agg_thread_ = std::thread([this] { AggregatorLoop(); });
  predict_thread_ = std::thread([this] { PredictorLoop(); });
}

void Pipeline::ProducerLoop() {
  GEO_OBS_SPAN(ingest_span, "stream.ingest");
  const int64_t start_ns = obs::NowNs();
  std::vector<Event> tick;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    tick.clear();
    if (!source_->NextTick(&tick)) {
      source_done_.store(true, std::memory_order_release);
      break;
    }
    // One wall-clock stamp per tick: the staleness metric's resolution
    // is the window span, so per-event stamps would be pure overhead.
    const int64_t ingest_ns = obs::NowNs();
    for (Event& e : tick) e.ingest_ns = ingest_ns;
    // The whole tick in one call, so the ring's lock is paid per chunk
    // rather than per event. A Stop mid-tick admits a prefix, and
    // exactly that prefix is counted.
    const size_t admitted = event_ring_.PushAll(tick.data(), tick.size());
    events_ingested_.fetch_add(static_cast<int64_t>(admitted),
                               std::memory_order_relaxed);
    if (admitted < tick.size()) break;  // Stop() closed the ring
    obs::SetGauge("stream.queue_depth",
                  static_cast<int64_t>(event_ring_.size()));
    if (options_.target_eps > 0) {
      // Pace admitted events to target_eps wall-clock, sleeping in
      // short slices so Stop stays responsive.
      const int64_t due_ns =
          start_ns + events_ingested_.load(std::memory_order_relaxed) *
                         1000000000 / options_.target_eps;
      while (!stop_requested_.load(std::memory_order_acquire)) {
        const int64_t wait_ns = due_ns - obs::NowNs();
        if (wait_ns <= 0) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(wait_ns, 5000000)));
      }
    }
  }
  event_ring_.Close();
}

void Pipeline::AggregatorLoop() {
  std::vector<Event> batch;
  batch.reserve(kAggregateBatch);
  std::vector<ClosedWindow> closed;
  while (event_ring_.PopBatch(kAggregateBatch, &batch) > 0) {
    {
      GEO_OBS_SPAN(agg_span, "stream.aggregate");
      for (const Event& event : batch) {
        closed.clear();
        aggregator_->Add(event, &closed);
        // Hand each closed window on at once, not after the batch: its
        // staleness runs from its last ingest, so holding it for the
        // rest of the batch would be added latency.
        for (ClosedWindow& w : closed) {
          window_ring_.Push(std::move(w));
          obs::SetGauge("stream.window_queue_depth",
                        static_cast<int64_t>(window_ring_.size()));
        }
      }
    }
    events_processed_.fetch_add(static_cast<int64_t>(batch.size()),
                                std::memory_order_relaxed);
    batch.clear();
  }
  // Event ring drained: seal the tail as a final partial window so no
  // admitted event is unrepresented downstream.
  closed.clear();
  aggregator_->Flush(&closed);
  for (ClosedWindow& w : closed) window_ring_.Push(std::move(w));
  window_ring_.Close();
}

void Pipeline::PredictorLoop() {
  ClosedWindow window;
  while (window_ring_.Pop(&window)) {
    predictor_->Predict(window);  // failures counted inside
  }
  if (source_done_.load(std::memory_order_acquire)) {
    finished_.store(true, std::memory_order_release);
  }
}

void Pipeline::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) {
    // A second caller (e.g. the destructor after an explicit Stop)
    // still needs the joins below to have finished; the first call
    // joined everything before returning, so nothing remains.
    return;
  }
  stop_requested_.store(true, std::memory_order_release);
  // Unblocks a producer stalled in backpressure; already-admitted
  // events stay poppable (Close refuses pushes, not pops).
  event_ring_.Close();
  if (producer_.joinable()) producer_.join();
  if (agg_thread_.joinable()) agg_thread_.join();
  if (predict_thread_.joinable()) predict_thread_.join();
}

bool Pipeline::Finished() const {
  return finished_.load(std::memory_order_acquire);
}

bool Pipeline::WaitFinished(int64_t timeout_ms) const {
  const int64_t deadline_ns = obs::NowNs() + timeout_ms * 1000000;
  while (!Finished() && obs::NowNs() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Finished();
}

PipelineStats Pipeline::stats() const {
  PipelineStats s;
  s.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  s.events_processed = events_processed_.load(std::memory_order_relaxed);
  s.late_events = aggregator_->late_events();
  s.dropped_outside = aggregator_->dropped_outside();
  s.windows_closed = aggregator_->windows_closed();
  s.predictions_ok = predictor_->predictions_ok();
  s.predictions_failed = predictor_->predictions_failed();
  s.index_rebuilds = aggregator_->index_rebuilds();
  s.active_cells = aggregator_->active_cells();
  s.queue_depth = static_cast<int64_t>(event_ring_.size());
  s.window_queue_depth = static_cast<int64_t>(window_ring_.size());
  return s;
}

}  // namespace geotorch::stream
