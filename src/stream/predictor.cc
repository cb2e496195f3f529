#include "stream/predictor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/check.h"
#include "obs/obs.h"

namespace geotorch::stream {

namespace ts = ::geotorch::tensor;

OnlinePredictor::OnlinePredictor(serve::Fleet* fleet, Options options)
    : fleet_(fleet), options_(std::move(options)) {
  GEO_CHECK(fleet_ != nullptr);
  GEO_CHECK_GE(options_.len_closeness, 1);
  GEO_CHECK_GE(options_.len_period, 0);
  GEO_CHECK_GE(options_.len_trend, 0);
  GEO_CHECK_GE(options_.steps_per_day, 1);
  max_lookback_ = options_.len_closeness;
  if (options_.len_period > 0) {
    max_lookback_ = std::max<int64_t>(
        max_lookback_, options_.len_period * options_.steps_per_day);
  }
  if (options_.len_trend > 0) {
    max_lookback_ = std::max<int64_t>(
        max_lookback_, options_.len_trend * 7 * options_.steps_per_day);
  }
}

void OnlinePredictor::Absorb(const ClosedWindow& window) {
  GEO_CHECK_EQ(window.frame.ndim(), 3);
  GEO_CHECK_EQ(window.frame.shape()[0], WindowAggregator::kChannels);
  if (frames_.empty()) {
    height_ = window.frame.shape()[1];
    width_ = window.frame.shape()[2];
    base_id_ = window.window_id;
  } else {
    GEO_CHECK_EQ(window.window_id,
                 base_id_ + static_cast<int64_t>(frames_.size()))
        << "windows must arrive in order";
  }
  frames_.push_back(window.frame);
  while (static_cast<int64_t>(frames_.size()) > max_lookback_) {
    frames_.pop_front();
    ++base_id_;
  }
}

const ts::Tensor* OnlinePredictor::FrameAt(int64_t id) const {
  if (id < base_id_ ||
      id >= base_id_ + static_cast<int64_t>(frames_.size())) {
    return nullptr;
  }
  return &frames_[id - base_id_];
}

ts::Tensor OnlinePredictor::Stack(int64_t next, int64_t len,
                                  int64_t stride) const {
  // Mirrors GridDataset::FrameStack: frames next - k*stride for
  // k = len..1, oldest first, stacked along channels. Missing history
  // is zero — Tensor::Zeros covers the gaps.
  const int64_t c = WindowAggregator::kChannels;
  const int64_t frame_elems = c * height_ * width_;
  ts::Tensor out = ts::Tensor::Zeros({len * c, height_, width_});
  float* dst = out.data();
  for (int64_t k = len; k >= 1; --k) {
    const ts::Tensor* frame = FrameAt(next - k * stride);
    if (frame != nullptr) {
      std::memcpy(dst, frame->data(), frame_elems * sizeof(float));
    }
    dst += frame_elems;
  }
  return out;
}

data::Sample OnlinePredictor::AssembleAfter(const ClosedWindow& window) {
  Absorb(window);
  const int64_t next = window.window_id + 1;
  data::Sample sample;
  sample.x = Stack(next, options_.len_closeness, 1);
  if (options_.len_period > 0) {
    sample.extras.push_back(
        Stack(next, options_.len_period, options_.steps_per_day));
  }
  if (options_.len_trend > 0) {
    sample.extras.push_back(
        Stack(next, options_.len_trend, 7 * options_.steps_per_day));
  }
  return sample;
}

Status OnlinePredictor::Predict(const ClosedWindow& window) {
  GEO_OBS_SPAN(predict_span, "stream.predict");
  const data::Sample sample = AssembleAfter(window);
  auto result = fleet_->Submit(options_.model, options_.tenant, sample,
                               options_.deadline_us);

  // Staleness of the answer relative to the newest event it covers;
  // an empty window is as fresh as its close.
  const int64_t anchor_ns =
      window.last_ingest_ns > 0 ? window.last_ingest_ns : window.close_ns;
  const int64_t staleness_us = (obs::NowNs() - anchor_ns) / 1000;
  GEO_OBS_HIST("stream.staleness_us", staleness_us);
  {
    std::lock_guard<std::mutex> lock(staleness_mu_);
    staleness_us_.push_back(staleness_us);
  }

  if (result.ok()) {
    predictions_ok_.fetch_add(1, std::memory_order_relaxed);
    GEO_OBS_COUNT("stream.predictions", 1);
    return Status::OK();
  }
  predictions_failed_.fetch_add(1, std::memory_order_relaxed);
  GEO_OBS_COUNT("stream.prediction_failures", 1);
  return result.status();
}

std::vector<int64_t> OnlinePredictor::StalenessSamplesUs() const {
  std::lock_guard<std::mutex> lock(staleness_mu_);
  return staleness_us_;
}

}  // namespace geotorch::stream
