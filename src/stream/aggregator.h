#ifndef GEOTORCH_STREAM_AGGREGATOR_H_
#define GEOTORCH_STREAM_AGGREGATOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "spatial/grid.h"
#include "spatial/strtree.h"
#include "stream/event.h"
#include "tensor/tensor.h"

namespace geotorch::stream {

/// One closed aggregation window, ready for prediction (DESIGN.md §14).
/// `frame` is (kChannels, H, W): channel 0 = event count per cell,
/// channel 1 = pickup count per cell — float images of exact integer
/// accumulators, which is what makes the incremental path bitwise-equal
/// to a batch StManager rebuild.
struct ClosedWindow {
  int64_t window_id = 0;  ///< slide-bucket index of the newest bucket
  int64_t start_sec = 0;  ///< window coverage [start_sec, end_sec)
  int64_t end_sec = 0;
  tensor::Tensor frame;
  int64_t events = 0;          ///< events aggregated into the frame
  int64_t last_ingest_ns = 0;  ///< newest ingest stamp in the window (0
                               ///< for an empty window)
  int64_t close_ns = 0;        ///< wall clock at close
  bool partial = false;        ///< closed by Flush before its span elapsed
};

/// Maintains the spatiotemporal grid INCREMENTALLY over an ordered
/// event stream: per-cell integer deltas applied on event arrival, a
/// ring of per-slide buckets, and a window emission at every bucket
/// close summing the last window/slide buckets in fixed ascending
/// order. Because every accumulator is an integer (exact in both int64
/// and float/double arithmetic), the emitted frames are bitwise
/// identical to a from-scratch batch rebuild via
/// prep::STManager::GetStGridDataFrame/GetStGridTensor with
/// step_duration == slide and aggs {count, sum(is_pickup)} — gated in
/// prep_test/stream_test.
///
/// Window clock semantics: bucket b covers dataset time
/// [b*slide, (b+1)*slide). An event in bucket b > current closes every
/// bucket in (current, b) first — one ClosedWindow per slide, INCLUDING
/// empty ones (a quiet grid is a forecastable state, and skipping them
/// would desynchronize the closeness stack). Events are ordered across
/// source ticks but not within one; any intra-tick order yields the
/// same frames since integer accumulation commutes. An event older
/// than the current bucket (contract violation) is counted and dropped,
/// never applied to an already-closed window.
///
/// Incremental spatial indexing: the point→cell assignment on the hot
/// path is the O(1) uniform-grid hash (spatial::GridPartitioner::
/// CellOf — the same fast path the batch join engine uses). On top of
/// that the aggregator keeps an epoch-based STR-tree over the ACTIVE
/// cells (nonzero count in the current window): each window close is an
/// epoch boundary, and the tree is rebuilt only when the active-cell
/// set actually changed since the previous epoch. Consumers query it for "where is
/// the load right now" without scanning the grid.
///
/// Threading: Add/Flush run on the aggregator stage's thread only;
/// HotCellIndex()/counters may be read from any thread.
class WindowAggregator {
 public:
  struct Options {
    int64_t window_sec = 1800;
    int64_t slide_sec = 1800;  ///< must divide window_sec
  };

  static constexpr int64_t kChannels = 2;

  WindowAggregator(spatial::GridPartitioner grid, Options options);

  /// Feeds one event; appends every window the event's timestamp
  /// closes (possibly several, possibly none) to `closed`.
  void Add(const Event& event, std::vector<ClosedWindow>* closed);

  /// Drain: closes the in-progress bucket as a final, `partial` window
  /// iff it has absorbed at least one event. Idempotent between events.
  void Flush(std::vector<ClosedWindow>* closed);

  /// Snapshot of the active-cell STR-tree after the newest epoch;
  /// nullptr before the first window close. Entry ids are cell ids.
  std::shared_ptr<const spatial::StrTree> HotCellIndex() const;

  const spatial::GridPartitioner& grid() const { return grid_; }
  const Options& options() const { return options_; }
  int64_t events() const { return events_.load(std::memory_order_relaxed); }
  int64_t dropped_outside() const {
    return dropped_outside_.load(std::memory_order_relaxed);
  }
  int64_t late_events() const {
    return late_events_.load(std::memory_order_relaxed);
  }
  int64_t windows_closed() const {
    return windows_closed_.load(std::memory_order_relaxed);
  }
  int64_t index_rebuilds() const {
    return index_rebuilds_.load(std::memory_order_relaxed);
  }
  /// Active cells in the newest closed window.
  int64_t active_cells() const {
    return active_cells_.load(std::memory_order_relaxed);
  }

 private:
  struct Bucket {
    std::vector<int64_t> counts;   ///< per-cell events
    std::vector<int64_t> pickups;  ///< per-cell pickups
    int64_t events = 0;
    int64_t last_ingest_ns = 0;
  };

  /// Seals the current bucket, emits the window ending at its boundary,
  /// advances the epoch index, and resets the accumulator.
  void CloseBucket(bool partial, std::vector<ClosedWindow>* closed);
  void RebuildIndexIfChanged(const std::vector<int64_t>& window_counts);

  spatial::GridPartitioner grid_;
  Options options_;
  int64_t num_cells_ = 0;
  int64_t buckets_per_window_ = 1;

  Bucket current_;
  int64_t current_bucket_ = 0;
  bool current_dirty_ = false;    ///< events since the last close
  std::deque<Bucket> history_;    ///< last closed buckets, oldest first

  std::vector<int64_t> last_active_;  ///< active cells of the last epoch
  mutable std::mutex index_mu_;
  std::shared_ptr<const spatial::StrTree> index_;

  // Written by the aggregator thread, polled by stats readers.
  std::atomic<int64_t> events_{0};
  std::atomic<int64_t> dropped_outside_{0};
  std::atomic<int64_t> late_events_{0};
  std::atomic<int64_t> windows_closed_{0};
  std::atomic<int64_t> index_rebuilds_{0};
  std::atomic<int64_t> active_cells_{0};
};

}  // namespace geotorch::stream

#endif  // GEOTORCH_STREAM_AGGREGATOR_H_
