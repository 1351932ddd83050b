// A min-queue for keys that mostly arrive in ascending order.
//
// The reorder kernel's window and the sniffer's call-expiry queue both
// take keys that rarely descend: accesses within a file stream mostly
// climb in offset, and capture timestamps arrive in order.  A binary heap
// pays O(log n) per key for order that is already there.  RunQueue keeps
// a sorted FIFO beside the heap: a key at or above the FIFO's last key is
// appended to it in O(1), and only a key below that goes into the heap.
// The minimum is the smaller of the FIFO's front and the heap's top, so
// top() and pop() follow exactly the order one heap of every key would
// (equal keys in either order).
//
// Consumed FIFO slots are reclaimed before the FIFO would reallocate,
// once at least half of them are consumed, so memory stays within a
// constant factor of the keys the queue holds at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

namespace nfstrace {

/// T needs operator<.
template <class T>
class RunQueue {
 public:
  bool empty() const { return fifo_.empty() && heap_.empty(); }
  std::size_t size() const { return fifo_.size() - head_ + heap_.size(); }

  // By value: `key` may be an element of this queue (push(top())).
  void push(T key) {
    if (fifo_.empty() || !(key < fifo_.back())) {
      if (fifo_.size() == fifo_.capacity() && 2 * head_ >= fifo_.size()) {
        fifo_.erase(fifo_.begin(),
                    fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      fifo_.push_back(key);
    } else {
      heap_.push_back(key);
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  }

  /// The least key.  The queue must not be empty.
  const T& top() const { return fifoFirst() ? fifo_[head_] : heap_.front(); }

  /// Drop top().  The queue must not be empty.
  void pop() {
    if (fifoFirst()) {
      if (++head_ == fifo_.size()) {
        fifo_.clear();
        head_ = 0;
      }
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
    }
  }

  void clear() {
    fifo_.clear();
    head_ = 0;
    heap_.clear();
  }

 private:
  static bool later(const T& a, const T& b) { return b < a; }
  bool fifoFirst() const {
    return !fifo_.empty() && (heap_.empty() || !(heap_.front() < fifo_[head_]));
  }

  /// Ascending; [0, head_) is consumed.  Empty whenever head_ would reach
  /// its end.
  std::vector<T> fifo_;
  std::size_t head_ = 0;
  /// Min-heap of the keys that arrived below the FIFO's last key.
  std::vector<T> heap_;
};

}  // namespace nfstrace
