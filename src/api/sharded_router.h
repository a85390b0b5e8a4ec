// The concurrent-ingest plumbing behind Session::Push: per-caller ingest
// shards and the per-site SPSC lane hub.
//
// Ingest model. Every thread that calls Push/PushBatch/Drain on a Session
// gets its own IngestShard — a thread-local router holding a private Rng
// (the paper's uniformly-random site assignment), per-site staged
// EventBatches, and per-site delivery lanes. The hot path therefore touches
// no shared mutable state at all: route with the shard's own Rng, append to
// the shard's own staging batch, and only when a batch fills does the shard
// cross a thread boundary — through its own SPSC lane (in-process backends)
// or the transport's thread-safe channel Push (socket backends).
//
// Lane hub. On the in-process substrates (kInProcess delivery, kThreads
// over the loopback transport) the consumer of a site's events is a single
// thread, so a SpscLaneHub gives each producing shard its own
// common/spsc_ring.h lane and multiplexes them on the consumer side: the
// SiteNode pops round-robin across lanes with no producer-shared lock.
// Blocking happens only at the edges — a producer parks when its lane is
// full, the consumer parks when every lane is empty — via condition
// variables that the opposite side signals only when a sleeper flag is set,
// so the steady state stays wait-free. The socket transports keep their own
// (already thread-safe, mutex-serialized) channel Push at the transport
// boundary; the hub is not used there.

#ifndef DSGM_API_SHARDED_ROUTER_H_
#define DSGM_API_SHARDED_ROUTER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/spsc_ring.h"
#include "common/thread_annotations.h"
#include "net/channel.h"
#include "net/wire.h"

namespace dsgm {
namespace internal {

/// One-producer/one-consumer multiplexer for a site's event stream:
/// producers register private SPSC lanes with AddLane(); the single
/// consumer drains all lanes through the Channel<EventBatch> interface.
/// Close() closes every lane; the consumer drains buffered batches and then
/// sees 0, matching BoundedQueue/Channel close semantics.
///
/// Concurrency contract (the hub-level half of common/spsc_ring.h's SPSC
/// contract): each lane's Push side belongs to exactly one producer at a
/// time — the registering shard's owner thread, or, after that thread
/// exits, whichever thread runs the session's serialized orphan flush (the
/// shard flush mutex provides the happens-before handoff). The pop side
/// (PopBatch/TryPopBatch and the consumer-only cached_lanes_/cursor_
/// below) belongs to exactly one consumer thread — the SiteNode. Both
/// sides are enforced dynamically in debug builds by SpscRing's
/// reentrancy guards; AddLane/Close/Push-parking are thread-safe through
/// the annotated mutexes below.
class SpscLaneHub final : public Channel<EventBatch> {
 public:
  /// Default `lane_capacity`, in batches: the loopback transport's per-site
  /// event queue bound, so the hub exerts comparable end-to-end
  /// backpressure.
  static constexpr size_t kDefaultLaneCapacity = 64;

  /// `lane_capacity` bounds each producer's ring (backpressure per
  /// producer).
  explicit SpscLaneHub(size_t lane_capacity = kDefaultLaneCapacity);
  ~SpscLaneHub() override;

  /// Registers a new producer lane. The returned channel's Push may be
  /// called by ONE thread only (the registering shard); it blocks while the
  /// lane is full and returns false once the hub is closed. Thread-safe.
  /// The hub owns the lane.
  Channel<EventBatch>* AddLane() DSGM_EXCLUDES(lanes_mu_);

  /// Producers reach the hub only through their own lanes.
  bool Push(EventBatch item) override;

  /// Single consumer: round-robin drain across every registered lane.
  size_t PopBatch(std::vector<EventBatch>* out, size_t max_items) override;
  size_t TryPopBatch(std::vector<EventBatch>* out, size_t max_items) override;

  void Close() override;

 private:
  class Lane;

  /// Round-robin sweep over the lanes; returns items appended. Refreshes
  /// the consumer's cached lane snapshot when producers registered since
  /// the last sweep.
  size_t SweepLanes(std::vector<EventBatch>* out, size_t max_items);
  /// Producer-side: wake the consumer if it parked waiting for data.
  void NotifyData();

  const size_t lane_capacity_;

  Mutex lanes_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_ DSGM_GUARDED_BY(lanes_mu_);
  std::atomic<size_t> lane_count_{0};
  std::atomic<bool> closed_{false};

  /// Consumer park/wake. consumer_waiting_ is the sleeper flag producers
  /// check after a push; the timed wait below is belt-and-braces against
  /// the unfenced flag/data race window (see PopBatch).
  Mutex sleep_mu_;
  CondVar data_cv_;
  std::atomic<bool> consumer_waiting_{false};

  /// OWNERSHIP-guarded, not lock-guarded: single consumer by contract (see
  /// the class comment), so no annotation — the ring guards catch misuse.
  std::vector<Lane*> cached_lanes_;
  size_t cursor_ = 0;
};

}  // namespace internal
}  // namespace dsgm

#endif  // DSGM_API_SHARDED_ROUTER_H_
