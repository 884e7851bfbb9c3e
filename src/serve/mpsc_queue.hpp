// Bounded blocking MPSC queue — the scheduler's admission-control stage.
//
// Many front-end threads push control requests; one scheduler thread pops
// and coalesces them into micro-batches. The bound is load shedding by
// back-pressure: when the consumer falls behind, producers block in push()
// instead of growing an unbounded backlog (tail latency surfaces at the
// edge, where callers can time out, rather than as silent queue bloat).
// close() releases everyone: pending pushes fail, pops drain what remains.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace verihvac::serve {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Blocks while the queue is full. Returns false iff the queue was (or
  /// became) closed — the item is then dropped and the caller must not
  /// expect it to be served.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available. Returns false when the queue is
  /// closed and fully drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking pop: the scheduler drains what is already queued into
  /// the batch it is about to solve.
  bool try_pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Reopens a closed queue so push/pop work again. Only valid once the
  /// consumer has exited and producers have observed the close — the
  /// scheduler uses it to support stop() -> start() cycles.
  void reopen() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace verihvac::serve
