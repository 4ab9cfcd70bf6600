#pragma once
// Bounded multi-producer multi-consumer FIFO queue.
//
// The admission-control primitive of the serving layer (src/serve): pushes
// never block — a full queue rejects immediately (try_push returns false),
// which the InferenceServer turns into a RejectedQueueFull verdict so heavy
// traffic degrades with fast, explicit backpressure instead of unbounded
// latency. A consumer blocks only while the queue is empty, then takes
// everything already queued up to its batch bound, and drains the remaining
// items after close(), which is what makes graceful SIGTERM drain work.
//
// Locking protocol (machine-checked via -Wthread-safety, see
// util/thread_annotations.hpp): items_ and closed_ are only touched under
// mutex_; every public method acquires it internally, so callers must not
// hold it across calls (MAGIC_EXCLUDES).

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace magic::util {

/// Bounded MPMC FIFO with non-blocking producers and blocking batch consumers.
template <typename T>
class BoundedQueue {
 public:
  /// A capacity of 0 is clamped to 1.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push. Returns false when the queue is full or closed;
  /// the item is left in a moved-from state only on success.
  bool try_push(T& item) MAGIC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }
  bool try_push(T&& item) MAGIC_EXCLUDES(mutex_) { return try_push(item); }

  /// Blocks only while the queue is empty and open, then replaces `out`'s
  /// contents with up to `max` queued items (at least 1, so `max` 0 takes
  /// one), oldest first, under one lock acquisition: it never waits for
  /// more items than are already queued. Returns false only when the queue
  /// is closed and fully drained (the consumer-shutdown signal), with `out`
  /// empty.
  bool pop_batch(std::vector<T>& out, std::size_t max) MAGIC_EXCLUDES(mutex_) {
    out.clear();
    MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) cv_.wait(lock);
    const std::size_t take = std::min(items_.size(), std::max<std::size_t>(max, 1));
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return take > 0;
  }

  /// Closes the queue: subsequent pushes fail, queued items remain poppable
  /// (graceful drain). Idempotent.
  void close() MAGIC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Closes the queue and removes every queued item, returning them so the
  /// caller can fail them explicitly (abort/fast-shutdown path).
  std::deque<T> close_and_drain() MAGIC_EXCLUDES(mutex_) {
    std::deque<T> drained;
    {
      MutexLock lock(mutex_);
      closed_ = true;
      drained.swap(items_);
    }
    cv_.notify_all();
    return drained;
  }

  std::size_t size() const MAGIC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }
  bool closed() const MAGIC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<T> items_ MAGIC_GUARDED_BY(mutex_);
  bool closed_ MAGIC_GUARDED_BY(mutex_) = false;
};

}  // namespace magic::util
