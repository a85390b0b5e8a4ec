// Transport-neutral channel abstraction for the cluster protocol.
//
// A Channel<T> is one unidirectional lane of typed frames with exactly the
// blocking and close semantics of common/queue.h's BoundedQueue: Push
// blocks on backpressure and returns false iff the channel is closed;
// PopBatch blocks until data or close, then drains remaining items before
// reporting 0. The cluster nodes (site_node, coordinator_node) speak only
// through this interface, so the same protocol logic runs over in-process
// queues (QueueChannel) or real sockets (net/reactor_transport.h).

#ifndef DSGM_NET_CHANNEL_H_
#define DSGM_NET_CHANNEL_H_

#include <cstddef>
#include <vector>

#include "common/queue.h"

namespace dsgm {

template <typename T>
class Channel {
 public:
  virtual ~Channel() = default;

  /// Blocks while the channel is backpressured. Returns false iff closed.
  virtual bool Push(T item) = 0;

  /// Blocks until at least one item or close. Appends up to `max_items` to
  /// `out` and returns the number appended (0 means closed and drained).
  virtual size_t PopBatch(std::vector<T>* out, size_t max_items) = 0;

  /// Non-blocking variant: appends whatever is immediately available.
  virtual size_t TryPopBatch(std::vector<T>* out, size_t max_items) = 0;

  /// Closes the sending direction: subsequent pushes fail, the receiver
  /// drains buffered items and then sees 0.
  virtual void Close() = 0;
};

/// In-process loopback: a Channel view over a BoundedQueue. Both endpoints
/// of the lane share the queue, so this is zero-copy and exactly preserves
/// the pre-transport cluster behavior. Does not own the queue.
template <typename T>
class QueueChannel : public Channel<T> {
 public:
  explicit QueueChannel(BoundedQueue<T>* queue) : queue_(queue) {}

  bool Push(T item) override { return queue_->Push(std::move(item)); }
  size_t PopBatch(std::vector<T>* out, size_t max_items) override {
    return queue_->PopBatch(out, max_items);
  }
  size_t TryPopBatch(std::vector<T>* out, size_t max_items) override {
    return queue_->TryPopBatch(out, max_items);
  }
  void Close() override { queue_->Close(); }

 private:
  BoundedQueue<T>* queue_;
};

}  // namespace dsgm

#endif  // DSGM_NET_CHANNEL_H_
