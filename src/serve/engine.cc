#include "serve/engine.h"

#include <chrono>
#include <cstring>
#include <exception>
#include <utility>

#include "core/check.h"
#include "obs/obs.h"
#include "core/thread_pool.h"
#include "tensor/shape.h"

namespace geotorch::serve {

namespace ts = ::geotorch::tensor;

namespace {

// Stacks per-sample tensors (each of shape `sample_shape`) into one
// (B, ...) tensor.
template <typename GetSample>
ts::Tensor StackRows(int64_t b, const ts::Shape& sample_shape,
                     const GetSample& get) {
  ts::Shape shape;
  shape.reserve(sample_shape.size() + 1);
  shape.push_back(b);
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  ts::Tensor out = ts::Tensor::Uninitialized(std::move(shape));
  const int64_t row = ts::NumElements(sample_shape);
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(out.data() + i * row, get(i).data(),
                static_cast<size_t>(row) * sizeof(float));
  }
  return out;
}

}  // namespace

Engine::Engine(BatchForward forward, SampleSpec spec, EngineOptions options)
    : forward_(std::move(forward)),
      spec_(std::move(spec)),
      options_(options),
      queue_(static_cast<size_t>(options_.max_queue)) {
  GEO_CHECK(forward_ != nullptr);
  GEO_CHECK_GE(options_.max_batch, 1);
  GEO_CHECK_GE(options_.max_queue, 1);
  // The batcher warms up before it serves; return once it has, so the
  // first Submit never pays for a cold thread-local workspace. Yield
  // instead of sleeping on a future: waking a sleeping constructor
  // costs about 15 us on a shared VM, a tenth of a small model's
  // set-up (EXPERIMENTS.md, *Serial batchers and the eval max pool*).
  std::atomic<bool> warmed{false};
  std::exception_ptr warmup_error;
  batcher_ = std::thread(
      [this, &warmed, &warmup_error] { BatcherLoop(&warmed, &warmup_error); });
  while (!warmed.load(std::memory_order_acquire)) std::this_thread::yield();
  if (warmup_error) {
    batcher_.join();
    std::rethrow_exception(warmup_error);
  }
}

Engine::~Engine() { Shutdown(); }

void Engine::Warmup() {
  if (options_.warmup_batches <= 0) return;
  GEO_OBS_SPAN(warmup_span, "serve.warmup");
  auto batched = [this](const ts::Shape& sample_shape) {
    ts::Shape shape;
    shape.reserve(sample_shape.size() + 1);
    shape.push_back(options_.max_batch);
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    return ts::Tensor::Zeros(std::move(shape));
  };
  data::Batch batch;
  batch.x = batched(spec_.x);
  for (const auto& extra_shape : spec_.extras) {
    batch.extras.push_back(batched(extra_shape));
  }
  batch.size = options_.max_batch;
  for (int i = 0; i < options_.warmup_batches; ++i) forward_(batch);
}

Result<ts::Tensor> Engine::Submit(const data::Sample& sample,
                                  int64_t deadline_us) {
  if (!ts::SameShape(sample.x.shape(), spec_.x)) {
    return Status::InvalidArgument(
        "sample shape " + ts::ShapeToString(sample.x.shape()) +
        " does not match engine spec " + ts::ShapeToString(spec_.x));
  }
  if (sample.extras.size() != spec_.extras.size()) {
    return Status::InvalidArgument(
        "sample has " + std::to_string(sample.extras.size()) +
        " extras, engine spec expects " +
        std::to_string(spec_.extras.size()));
  }
  for (size_t e = 0; e < sample.extras.size(); ++e) {
    if (!ts::SameShape(sample.extras[e].shape(), spec_.extras[e])) {
      return Status::InvalidArgument(
          "extra " + std::to_string(e) + " shape mismatch: " +
          ts::ShapeToString(sample.extras[e].shape()) + " vs spec " +
          ts::ShapeToString(spec_.extras[e]));
    }
  }

  const int64_t t0 = obs::NowNs();
  Request req;
  req.sample = sample;
  std::future<ts::Tensor> fut = req.promise.get_future();
  bool admitted;
  {
    // Push and count under mu_, which RunBatch also takes to advance
    // answered_: a request counts toward Drain's target before the
    // batcher can answer it, and a refused push never counts.
    std::lock_guard<std::mutex> lock(mu_);
    admitted = queue_.TryPush(std::move(req));
    if (admitted) requests_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!admitted) {
    if (queue_.closed()) {
      return Status::InvalidArgument("engine is shut down");
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    GEO_OBS_COUNT("serve.rejected", 1);
    return Status::OutOfRange(
        "serve queue full (" + std::to_string(options_.max_queue) +
        " waiting) — backpressure, retry later");
  }
  GEO_OBS_COUNT("serve.requests", 1);
  if (GEO_OBS_ON()) {
    obs::SetGauge("serve.queue_depth", static_cast<int64_t>(queue_.size()));
  }

  if (deadline_us > 0) {
    // Abandoning the future is safe: the promise keeps the shared state
    // alive, so the batcher's set_value after this return is a no-op
    // from our perspective, and the request still advances answered_
    // (Drain's contract is unchanged).
    if (fut.wait_for(std::chrono::microseconds(deadline_us)) !=
        std::future_status::ready) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      GEO_OBS_COUNT("serve.deadline_exceeded", 1);
      return Status::DeadlineExceeded(
          "request not answered within " + std::to_string(deadline_us) +
          "us (queued behind a stalled or overloaded batcher)");
    }
  }
  ts::Tensor out = fut.get();
  GEO_OBS_HIST("serve.latency_us", (obs::NowNs() - t0) / 1000);
  return out;
}

void Engine::BatcherLoop(std::atomic<bool>* warmed,
                         std::exception_ptr* warmup_error) {
  // Forwards run serially on this thread, whatever the process device:
  // a serving batch is too small to pay for pool dispatches, and the
  // replicas and models of a fleet are the parallelism (DESIGN.md §9).
  DeviceGuard serial(Device::kSerial);
  // Warm up here, not on the constructing thread: the workspace arena
  // is thread-local, so only this thread's forwards can warm it.
  try {
    Warmup();
  } catch (...) {
    *warmup_error = std::current_exception();
  }
  // Both pointees live in the constructor's frame: touch neither after
  // this store.
  const bool failed = *warmup_error != nullptr;
  warmed->store(true, std::memory_order_release);
  if (failed) return;
  const size_t max_batch = static_cast<size_t>(options_.max_batch);
  for (;;) {
    // Take what is queued, up to max_batch, and run it at once: no
    // fill-wait (DESIGN.md §9). Requests that arrive during a forward
    // wait for it anyway, so they form the next batch; waiting for
    // more after that only adds latency.
    std::vector<Request> taken;
    if (queue_.PopBatch(max_batch, &taken) == 0) return;  // closed, drained
    if (GEO_OBS_ON()) {
      obs::SetGauge("serve.queue_depth", static_cast<int64_t>(queue_.size()));
    }
    RunBatch(std::move(taken));
  }
}

void Engine::RunBatch(std::vector<Request> requests) {
  GEO_OBS_SPAN(batch_span, "serve.batch");
  const int64_t b = static_cast<int64_t>(requests.size());

  data::Batch batch;
  batch.x = StackRows(b, spec_.x, [&requests](int64_t i) -> const ts::Tensor& {
    return requests[i].sample.x;
  });
  for (size_t e = 0; e < spec_.extras.size(); ++e) {
    batch.extras.push_back(StackRows(
        b, spec_.extras[e], [&requests, e](int64_t i) -> const ts::Tensor& {
          return requests[i].sample.extras[e];
        }));
  }
  batch.size = b;

  ts::Tensor out;
  {
    GEO_OBS_SPAN(fwd_span, "serve.forward");
    out = forward_(batch);
  }
  GEO_CHECK(out.ndim() >= 1 && out.size(0) == b)
      << "BatchForward must return one output row per request";

  // Account the batch BEFORE releasing any waiter: a caller that
  // returns from Submit must observe this batch in stats().
  batches_.fetch_add(1, std::memory_order_relaxed);
  GEO_OBS_COUNT("serve.batches", 1);
  GEO_OBS_HIST("serve.batch_size", b);

  ts::Shape row_shape(out.shape().begin() + 1, out.shape().end());
  if (row_shape.empty()) row_shape = {1};
  const int64_t row = ts::NumElements(row_shape);
  for (int64_t i = 0; i < b; ++i) {
    ts::Tensor slice = ts::Tensor::Uninitialized(row_shape);
    std::memcpy(slice.data(), out.data() + i * row,
                static_cast<size_t>(row) * sizeof(float));
    requests[i].promise.set_value(std::move(slice));
  }

  // Advance the answered count only after every promise of this batch
  // holds its value: Drain's contract is "answered", not "dequeued",
  // so a drainer released here can rely on all b callers having their
  // results committed.
  {
    std::lock_guard<std::mutex> lock(mu_);
    answered_ += b;
  }
  drained_cv_.notify_all();
}

void Engine::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Everything accepted so far — queued or mid-batch. Snapshot once:
  // submits racing this drain raise requests_ but not the target, so
  // the wait below cannot be extended (no starvation under load).
  const int64_t target = requests_.load(std::memory_order_relaxed);
  drained_cv_.wait(lock, [this, target] { return answered_ >= target; });
}

int Engine::queue_depth() const { return static_cast<int>(queue_.size()); }

void Engine::Shutdown() {
  queue_.Close();
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (batcher_.joinable()) batcher_.join();
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace geotorch::serve
