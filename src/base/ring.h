// FIFO ring buffer for the simulator's work queues.
//
// std::deque allocates a block every few elements as a queue's tail
// advances and frees one as its head passes, so a queue that merely churns —
// a service's pending asks, a kernel's egress, a webserver's backlog — pays
// a malloc/free pair every few operations forever. Ring keeps its elements
// in one power-of-two buffer that grows (doubling, elements kept in FIFO
// order) only when the queue outgrows its high-water mark, after which
// pushing and popping allocate nothing. A popped slot is reset to T() so
// it releases what it held (message bodies, closures) immediately.
#ifndef SEMPEROS_BASE_RING_H_
#define SEMPEROS_BASE_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "base/log.h"

namespace semperos {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    CHECK(size_ != 0);
    return buf_[head_];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    CHECK(size_ != 0);
    buf_[head_] = T();
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void clear() {
    while (size_ != 0) {
      pop_front();
    }
  }

 private:
  void Grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity is buf_.size(), always 0 or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_BASE_RING_H_
