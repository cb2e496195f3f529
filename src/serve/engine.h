#ifndef GEOTORCH_SERVE_ENGINE_H_
#define GEOTORCH_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/bounded_queue.h"
#include "core/status.h"
#include "data/dataloader.h"
#include "serve/config.h"
#include "tensor/tensor.h"

namespace geotorch::serve {

/// Per-sample input contract of an engine: the shape of one request's
/// `x` (no leading batch dimension) and of each extra input. Submits
/// are validated against it, and warmup batches are built from it.
struct SampleSpec {
  tensor::Shape x;
  std::vector<tensor::Shape> extras;
};

struct EngineStats {
  int64_t requests = 0;  ///< accepted submits
  int64_t rejected = 0;  ///< backpressure rejections (queue full)
  int64_t batches = 0;   ///< forward passes run (excluding warmup)
  /// Submits whose caller stopped waiting because its per-request
  /// deadline elapsed. These requests were admitted and still count in
  /// `requests`; the batcher answers them in the background.
  int64_t deadline_exceeded = 0;
};

/// Dynamically-batched inference engine (DESIGN.md §9). Callers submit
/// single samples and block on the result; a batcher thread takes
/// whatever is queued, up to `max_batch` requests, runs ONE batched
/// forward, and scatters the output rows back to the waiting callers.
/// It never waits for a partial batch to fill (`max_delay_us` is not
/// read; removed once geobench stops assigning it). The bounded queue
/// rejects submits once `max_queue` requests are waiting, giving
/// overloaded deployments backpressure instead of unbounded memory.
///
/// The engine is model-agnostic: it owns a BatchForward closure.
/// serve/adapters.h wraps this repo's model families (grid models,
/// raster classifiers, segmentation nets) in eval mode under
/// NoGradGuard; checkpoints load via io::LoadStateDict beforehand.
class Engine {
 public:
  /// Batched inference function: a stacked (B, ...) batch in, stacked
  /// (B, ...) outputs out (row i belongs to request i). Called only
  /// from the batcher thread, never concurrently with itself.
  using BatchForward = std::function<tensor::Tensor(const data::Batch&)>;

  /// Starts the batcher thread after running `warmup_batches` full-size
  /// zero-batch forwards.
  Engine(BatchForward forward, SampleSpec spec,
         EngineOptions options = EngineOptions::FromEnv());
  /// Drains and joins (graceful shutdown).
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits one sample (sample.x and sample.extras must match the
  /// SampleSpec; sample.y is ignored) and blocks until its output row
  /// is ready. `deadline_us` bounds the wait, measured from entry
  /// (queueing + batching + forward); 0 or negative waits forever.
  /// Errors:
  ///   InvalidArgument  — shape/extras mismatch, or engine shut down;
  ///   OutOfRange       — bounded queue full (backpressure; retry later);
  ///   DeadlineExceeded — the deadline elapsed before the output row was
  ///                      ready. The request was already admitted, so
  ///                      the batcher still answers it in the background
  ///                      (it keeps counting toward Drain); only this
  ///                      caller abandons the wait. Callers with a
  ///                      staleness budget (the streaming predictor) use
  ///                      this so a stalled batcher costs one deadline,
  ///                      not an unbounded block.
  Result<tensor::Tensor> Submit(const data::Sample& sample,
                                int64_t deadline_us = 0);

  /// Stops accepting new submits, serves everything already queued,
  /// and joins the batcher thread. Idempotent and thread-safe.
  void Shutdown();

  /// Blocks until every request accepted BEFORE this call has been
  /// answered (its output row committed to the caller's future), then
  /// returns. The engine keeps running: submits arriving during the
  /// drain are accepted normally and are NOT waited for, so a drain
  /// racing a steady request stream still terminates — its target is
  /// the accepted count snapshotted at entry, which later submits
  /// cannot grow. Safe to call from several threads at once, and
  /// returns immediately on an idle engine.
  ///
  /// "Answered", not "dequeued": a request leaves the queue when the
  /// batcher takes its batch, strictly before the forward runs. A
  /// drain that waited only for an empty queue could hand "quiesced"
  /// back to a caller while a batch is still mid-forward — a caller
  /// that then tears down the model the engine serves from would leave
  /// the batcher computing on freed weights and its waiters blocked on
  /// futures that are never fulfilled. This is the primitive the fleet
  /// reload path uses to retire a swapped-out model snapshot.
  void Drain();

  /// Requests currently waiting in the queue (excludes the batch the
  /// batcher is running right now). For tests and monitoring: the
  /// fleet router does not read it, it routes on its own per-replica
  /// count of outstanding (accepted, not yet answered) requests.
  int queue_depth() const;

  EngineStats stats() const;
  const EngineOptions& options() const { return options_; }
  const SampleSpec& spec() const { return spec_; }

 private:
  struct Request {
    data::Sample sample;
    std::promise<tensor::Tensor> promise;
  };

  void BatcherLoop();
  /// Stacks `requests` into one Batch, runs the forward, scatters the
  /// output rows into the request promises.
  void RunBatch(std::vector<Request> requests);
  void Warmup();

  BatchForward forward_;
  SampleSpec spec_;
  EngineOptions options_;

  /// Admitted requests, capacity max_queue. Shutdown closes it; the
  /// batcher then serves what is buffered and exits.
  BoundedQueue<Request> queue_;

  /// Drain's bookkeeping. Submit pushes and counts (requests_) under
  /// mu_, and RunBatch advances answered_ under mu_, so every answered
  /// request was counted first and the count order is the queue order.
  std::mutex mu_;
  /// Signalled by RunBatch each time answered_ advances; Drain waits on
  /// it.
  std::condition_variable drained_cv_;
  /// Requests answered so far (output row committed to the caller's
  /// future). Guarded by mu_; together with the accepted count
  /// (requests_) it defines Drain's completion predicate
  /// answered_ >= target.
  int64_t answered_ = 0;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> deadline_exceeded_{0};

  std::mutex join_mu_;  // serializes concurrent Shutdown() calls
  std::thread batcher_;
};

}  // namespace geotorch::serve

#endif  // GEOTORCH_SERVE_ENGINE_H_
