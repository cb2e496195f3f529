#include "stream/aggregator.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "obs/obs.h"
#include "spatial/geometry.h"

namespace geotorch::stream {

namespace ts = ::geotorch::tensor;

WindowAggregator::WindowAggregator(spatial::GridPartitioner grid,
                                   Options options)
    : grid_(std::move(grid)), options_(options) {
  GEO_CHECK_GT(options_.window_sec, 0);
  GEO_CHECK_GT(options_.slide_sec, 0);
  GEO_CHECK(options_.window_sec % options_.slide_sec == 0)
      << "slide " << options_.slide_sec << " must divide window "
      << options_.window_sec;
  num_cells_ = grid_.NumCells();
  buckets_per_window_ = options_.window_sec / options_.slide_sec;
  current_.counts.assign(num_cells_, 0);
  current_.pickups.assign(num_cells_, 0);
}

void WindowAggregator::Add(const Event& event,
                           std::vector<ClosedWindow>* closed) {
  const int64_t bucket = event.time_sec / options_.slide_sec;
  if (event.time_sec < 0 || bucket < current_bucket_) {
    // Behind an already-sealed window: applying it would silently
    // diverge from the batch rebuild, so count and drop instead.
    late_events_.fetch_add(1, std::memory_order_relaxed);
    GEO_OBS_COUNT("stream.late_events", 1);
    return;
  }
  // Time advances close intervening buckets first — one window per
  // slide, empty ones included, so the frame history downstream stays
  // an unbroken time series.
  while (bucket > current_bucket_) CloseBucket(/*partial=*/false, closed);

  events_.fetch_add(1, std::memory_order_relaxed);
  GEO_OBS_COUNT("stream.events", 1);
  current_.last_ingest_ns =
      std::max(current_.last_ingest_ns, event.ingest_ns);
  current_dirty_ = true;
  const auto cell = grid_.CellOf(spatial::Point{event.lon, event.lat});
  if (!cell.has_value()) {
    // Outside the extent — exactly the rows the batch path's
    // cell_id >= 0 filter drops.
    dropped_outside_.fetch_add(1, std::memory_order_relaxed);
    GEO_OBS_COUNT("stream.dropped_outside", 1);
    return;
  }
  ++current_.events;
  ++current_.counts[*cell];
  if (event.is_pickup) ++current_.pickups[*cell];
}

void WindowAggregator::Flush(std::vector<ClosedWindow>* closed) {
  if (!current_dirty_) return;
  CloseBucket(/*partial=*/true, closed);
}

void WindowAggregator::CloseBucket(bool partial,
                                   std::vector<ClosedWindow>* closed) {
  GEO_OBS_SPAN(close_span, "stream.window_close");

  history_.push_back(std::move(current_));
  if (static_cast<int64_t>(history_.size()) > buckets_per_window_) {
    history_.pop_front();
  }
  current_ = Bucket{};
  current_.counts.assign(num_cells_, 0);
  current_.pickups.assign(num_cells_, 0);
  current_dirty_ = false;

  // Window frame = sum of the retained buckets in ascending bucket
  // order. All values are integers, so this sum — and therefore the
  // float frame — is independent of arrival order and bitwise equal to
  // any other grouping of the same events.
  std::vector<int64_t> counts(num_cells_, 0);
  std::vector<int64_t> pickups(num_cells_, 0);
  int64_t window_events = 0;
  int64_t last_ingest_ns = 0;
  for (const Bucket& b : history_) {
    for (int64_t c = 0; c < num_cells_; ++c) {
      counts[c] += b.counts[c];
      pickups[c] += b.pickups[c];
    }
    window_events += b.events;
    last_ingest_ns = std::max(last_ingest_ns, b.last_ingest_ns);
  }

  const int64_t h = grid_.ny();
  const int64_t w = grid_.nx();
  ClosedWindow out;
  out.window_id = current_bucket_;
  out.end_sec = (current_bucket_ + 1) * options_.slide_sec;
  out.start_sec = std::max<int64_t>(0, out.end_sec - options_.window_sec);
  out.frame = ts::Tensor::Zeros({kChannels, h, w});
  float* p = out.frame.data();
  for (int64_t c = 0; c < num_cells_; ++c) {
    // cell id = iy * nx + ix, identical to the (C, H, W) plane layout.
    p[c] = static_cast<float>(counts[c]);
    p[num_cells_ + c] = static_cast<float>(pickups[c]);
  }
  out.events = window_events;
  out.last_ingest_ns = last_ingest_ns;
  out.close_ns = obs::NowNs();
  out.partial = partial;

  ++current_bucket_;
  windows_closed_.fetch_add(1, std::memory_order_relaxed);

  RebuildIndexIfChanged(counts);
  closed->push_back(std::move(out));
}

void WindowAggregator::RebuildIndexIfChanged(
    const std::vector<int64_t>& window_counts) {
  std::vector<int64_t> active;
  for (int64_t c = 0; c < num_cells_; ++c) {
    if (window_counts[c] > 0) active.push_back(c);
  }
  active_cells_.store(static_cast<int64_t>(active.size()),
                      std::memory_order_relaxed);
  if (active == last_active_) return;  // epoch unchanged: reuse the tree

  GEO_OBS_SPAN(rebuild_span, "stream.index_rebuild");
  std::vector<spatial::StrTree::Entry> entries;
  entries.reserve(active.size());
  for (int64_t cell : active) {
    entries.push_back({grid_.CellEnvelope(cell), cell});
  }
  auto tree = std::make_shared<const spatial::StrTree>(
      std::move(entries), /*node_capacity=*/10);
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index_ = std::move(tree);
  }
  last_active_ = std::move(active);
  index_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  GEO_OBS_COUNT("stream.index_rebuilds", 1);
}

std::shared_ptr<const spatial::StrTree> WindowAggregator::HotCellIndex()
    const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_;
}

}  // namespace geotorch::stream
