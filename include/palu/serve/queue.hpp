// The bounded handoff between serve's ingest and fit threads.
//
// A single-producer/single-consumer queue of any movable payload with an
// explicit backpressure policy: kBlock makes the producer wait
// (lossless), the two drop policies shed one item and count it, so the
// operator sees data loss as a first-class metric rather than a silent
// gap.  close() ends the stream gracefully (consumers drain what is
// queued); abort() is the drain-deadline hammer (pending and future pops
// return immediately).
//
// The daemon queues sealed windows (serve/daemon.hpp), so every push and
// pop moves one whole N_V-packet window.  BoundedRecordQueue, the
// per-record form, is kept for perfbench's staged reference pipeline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "palu/common/thread_annotations.hpp"
#include "palu/io/tail.hpp"
#include "palu/serve/options.hpp"

namespace palu::serve {

template <class T>
class BoundedQueue {
 public:
  enum class PushResult {
    kOk,             ///< item admitted
    kDroppedOldest,  ///< admitted; the oldest queued item was evicted
    kDroppedNewest,  ///< item discarded
    kClosed,         ///< queue closed or aborted; item discarded
  };

  /// `capacity` items; 0 is taken as 1.
  BoundedQueue(std::size_t capacity, BackpressurePolicy policy)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  /// Producer side.  Under kBlock this waits while the queue is full
  /// (until a pop, close, or abort).
  PushResult push(T item) PALU_EXCLUDES(mutex_) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_ || aborted_) return PushResult::kClosed;
    PushResult result = PushResult::kOk;
    if (items_.size() >= capacity_) {
      switch (policy_) {
        case BackpressurePolicy::kBlock:
          not_full_.wait(lock, [&] {
            return items_.size() < capacity_ || closed_ || aborted_;
          });
          if (closed_ || aborted_) return PushResult::kClosed;
          break;
        case BackpressurePolicy::kDropOldest:
          items_.pop_front();
          ++dropped_;
          result = PushResult::kDroppedOldest;
          break;
        case BackpressurePolicy::kDropNewest:
          ++dropped_;
          return PushResult::kDroppedNewest;
      }
    }
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return result;
  }

  /// Consumer side: blocks until an item, close-with-empty-queue, or
  /// abort.  Returns false when the stream has ended.
  bool pop(T& out) PALU_EXCLUDES(mutex_) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] {
      return !items_.empty() || closed_ || aborted_;
    });
    if (aborted_ || items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// No more pushes; pops drain the remaining items then return false.
  void close() PALU_EXCLUDES(mutex_) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Discards queued items and wakes everyone; both ends see the stream
  /// as ended immediately.
  void abort() PALU_EXCLUDES(mutex_) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      aborted_ = true;
      items_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t depth() const PALU_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  bool closed() const PALU_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }
  /// Items shed by the drop policies since construction.
  std::uint64_t dropped() const PALU_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_ PALU_GUARDED_BY(mutex_);
  bool closed_ PALU_GUARDED_BY(mutex_) = false;
  bool aborted_ PALU_GUARDED_BY(mutex_) = false;
  std::uint64_t dropped_ PALU_GUARDED_BY(mutex_) = 0;
};

/// One parsed record per item: perfbench's per-record reference pipeline.
using BoundedRecordQueue = BoundedQueue<io::TailRecord>;

}  // namespace palu::serve
