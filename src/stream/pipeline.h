#ifndef GEOTORCH_STREAM_PIPELINE_H_
#define GEOTORCH_STREAM_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"
#include "serve/fleet.h"
#include "spatial/grid.h"
#include "stream/aggregator.h"
#include "stream/event.h"
#include "stream/options.h"
#include "stream/predictor.h"

namespace geotorch::stream {

/// Point-in-time pipeline counters; every field is a monotonic total.
struct PipelineStats {
  int64_t events_ingested = 0;   ///< events admitted to the event ring
  int64_t events_processed = 0;  ///< events the aggregator consumed
  int64_t late_events = 0;
  int64_t dropped_outside = 0;
  int64_t windows_closed = 0;
  int64_t predictions_ok = 0;
  int64_t predictions_failed = 0;
  int64_t index_rebuilds = 0;
  int64_t active_cells = 0;
  int64_t queue_depth = 0;        ///< event ring occupancy right now
  int64_t window_queue_depth = 0;
};

/// The streaming spatiotemporal pipeline (DESIGN.md §14): three
/// pull-driven stages over two bounded rings,
///
///   EventSource → [event ring] → WindowAggregator → [window ring]
///                                                 → OnlinePredictor
///
/// each on its own thread. Backpressure is structural: a full ring
/// blocks the upstream stage, so a slow predictor throttles the
/// aggregator and a slow aggregator throttles ingest — memory stays
/// bounded at queue + window_queue items no matter the event rate.
/// The event ring moves events in bulk: the producer hands it a whole
/// tick in one PushAll, the aggregator takes up to a batch per PopBatch,
/// so its lock is paid per chunk rather than per event.
///
/// Shutdown/drain ordering (what makes the drain lossless): Stop —
/// or source exhaustion — stops the producer, which closes the event
/// ring; the aggregator pops until the ring reports closed-and-empty,
/// flushes the final partial window, and closes the window ring; the
/// predictor pops until that ring drains. Each stage therefore
/// processes everything admitted upstream before exiting, and
/// windows_closed == predictions_ok + predictions_failed holds after
/// Stop returns.
///
/// Producer pacing: options.target_eps > 0 sleeps the producer so
/// admitted events per wall-clock second stay at the target — the knob
/// the staleness-vs-throughput ablation sweeps. 0 runs unthrottled
/// (backpressure is then the only brake).
class Pipeline {
 public:
  /// `source`, `fleet` must outlive the pipeline. `model` names a
  /// fleet model whose SampleSpec matches the predictor's stacks.
  Pipeline(EventSource* source, serve::Fleet* fleet,
           spatial::GridPartitioner grid, std::string model,
           StreamOptions options = StreamOptions::FromEnv());
  ~Pipeline();  ///< implies Stop()
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Launches the three stage threads. Call once.
  void Start();

  /// Requests producer stop, then joins the stages in pipeline order,
  /// draining both rings (see class comment). Idempotent; also invoked
  /// by the destructor. Blocks until the last prediction resolved.
  void Stop();

  /// True once the source is exhausted and every stage has drained.
  bool Finished() const;

  /// Blocks until Finished() (source end) or `timeout_ms` elapsed;
  /// returns Finished(). Does not stop a still-running pipeline.
  bool WaitFinished(int64_t timeout_ms) const;

  PipelineStats stats() const;
  const WindowAggregator& aggregator() const { return *aggregator_; }
  const OnlinePredictor& predictor() const { return *predictor_; }
  const StreamOptions& options() const { return options_; }

 private:
  void ProducerLoop();
  void AggregatorLoop();
  void PredictorLoop();

  EventSource* source_;
  serve::Fleet* fleet_;
  std::string model_;
  StreamOptions options_;

  BoundedQueue<Event> event_ring_;
  BoundedQueue<ClosedWindow> window_ring_;
  std::unique_ptr<WindowAggregator> aggregator_;
  std::unique_ptr<OnlinePredictor> predictor_;

  std::thread producer_;
  std::thread agg_thread_;
  std::thread predict_thread_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> source_done_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> finished_{false};
  std::atomic<int64_t> events_ingested_{0};
  std::atomic<int64_t> events_processed_{0};
};

}  // namespace geotorch::stream

#endif  // GEOTORCH_STREAM_PIPELINE_H_
