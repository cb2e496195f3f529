#ifndef GEOTORCH_CORE_BOUNDED_QUEUE_H_
#define GEOTORCH_CORE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "core/check.h"

namespace geotorch {

/// The one hand-off queue of the library: the ThreadPool's task queue,
/// the serving Engine's request queue and the stream pipeline's two
/// rings are all built on it (DESIGN.md §5, §9, §14).
///
/// Push blocks while the queue is full (producers slow to the
/// consumer's pace instead of growing an unbounded buffer); Pop blocks
/// while it is empty. Close() starts the drain: pushes are refused from
/// then on, pops keep succeeding until the buffered items are gone, and
/// only then does Pop return false. That ordering is what makes every
/// drain lossless — each item admitted before Close is consumed.
///
/// A mutex + two condvars rather than a lock-free ring on purpose: the
/// blocking semantics (backpressure, drain) are the actual product
/// here. The lock round trip costs a few hundred ns per call, which is
/// noise next to the tensor-sized work of the pool's and the engine's
/// consumers. It is not noise next to the stream's event ring, whose
/// items are 40-byte events: one Push/Pop pair per event made the ring
/// the pipeline's bottleneck (DESIGN.md §14). Small-item callers
/// therefore move items in bulk, PushAll on the producer side and
/// PopBatch on the consumer side, so the lock is paid per chunk.
template <typename T>
class BoundedQueue {
 public:
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  explicit BoundedQueue(size_t capacity = kUnbounded) : capacity_(capacity) {
    GEO_CHECK_GE(capacity, 1u);
  }
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room (backpressure) or the queue is closed;
  /// false means closed-and-refused (the item was NOT enqueued).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Pushes items[0, n) in order, moving each, under one lock per chunk
  /// that fits: it blocks for room as Push does, then admits as many
  /// items as the free space allows before waking the consumers (all of
  /// them: a chunk can feed more than one). Returns how many items were
  /// admitted, which is fewer than n only when the queue was closed
  /// mid-call; items past that count are untouched.
  size_t PushAll(T* items, size_t n) {
    size_t admitted = 0;
    while (admitted < n) {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) break;
      const size_t chunk = std::min(n - admitted, capacity_ - items_.size());
      for (size_t i = 0; i < chunk; ++i) {
        items_.push_back(std::move(items[admitted + i]));
      }
      admitted += chunk;
      lock.unlock();
      not_empty_.notify_all();
    }
    return admitted;
  }

  /// Non-blocking push; false when full or closed (closed() tells the
  /// two apart). Lets producers reject or count would-block events
  /// instead of stalling.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND
  /// empty; false only in the latter case (drain complete).
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Blocks until at least one item is available, then appends up to
  /// `max` (>= 1) of them to `out` in FIFO order and returns how many.
  /// Returns 0 only when the queue is closed and drained. A closed
  /// queue never blocks: it hands out what is buffered at once.
  size_t PopBatch(size_t max, std::vector<T>* out) {
    GEO_CHECK_GE(max, 1u);
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    const size_t n = std::min(max, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Refuses further pushes; buffered items remain poppable. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace geotorch

#endif  // GEOTORCH_CORE_BOUNDED_QUEUE_H_
