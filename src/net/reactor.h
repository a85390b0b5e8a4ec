// A single-threaded event loop — the I/O substrate that lets ONE
// coordinator thread own hundreds of site connections instead of a reader
// and writer thread per site (see net/reactor_transport.h for the transport
// built on top).
//
// Pieces:
//   - TimerWheel: a hashed timer wheel (fixed tick, power-of-two slots) for
//     the per-site liveness deadlines and heartbeat periods. Pure tick
//     arithmetic, no clock — unit-testable without sleeping.
//   - Reactor: edge-triggered epoll + an eventfd wakeup so other threads
//     can inject work, + the wheel driven from the wait timeout.
//
// Threading model: the loop runs on one dedicated thread (Start/Stop). All
// fd and timer mutation happens on that thread; other threads communicate
// exclusively through Post(), which enqueues a closure and wakes the loop.
// This keeps every handler single-threaded — no locks in the I/O path.
//
// That discipline is a compile-time contract: `loop_role` is a ThreadRole
// capability held by the loop thread, and every loop-only method requires
// it. Closures that cross the Post/timer/fd-handler boundary re-assert it
// with loop_role.AssertHeld() at their top (a std::function erases the
// static capability), which also CHECKs the calling thread in debug builds.

#ifndef DSGM_NET_REACTOR_H_
#define DSGM_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dsgm {

/// Hashed timer wheel: timers hash into `num_slots` buckets by expiry tick;
/// advancing the wheel visits only the buckets whose turn came up. Entries
/// scheduled more than one rotation out stay bucketed and are skipped (and
/// re-kept) once per rotation — O(1) amortized for the short deadlines the
/// transport uses. Cancellation is lazy: cancelled ids are dropped when
/// their bucket is next visited.
class TimerWheel {
 public:
  TimerWheel(int tick_ms, size_t num_slots);

  int tick_ms() const { return tick_ms_; }
  size_t live() const { return live_; }
  uint64_t current_tick() const { return current_tick_; }

  /// Schedules `id` to fire `delay_ms` from the current tick (rounded up to
  /// a whole tick, minimum one: a timer never fires on the tick it was
  /// scheduled). Ids are caller-assigned and must be unique among live
  /// timers.
  void Schedule(uint64_t id, int delay_ms);

  void Cancel(uint64_t id);

  /// Advances the wheel to `now_tick`, appending every due, uncancelled id
  /// to `fired`. Ticks never move backwards; a stale `now_tick` is a no-op.
  void Advance(uint64_t now_tick, std::vector<uint64_t>* fired);

 private:
  struct Entry {
    uint64_t id;
    uint64_t expiry_tick;
  };

  void DrainSlot(size_t slot, uint64_t now_tick, std::vector<uint64_t>* fired);

  int tick_ms_;
  std::vector<std::vector<Entry>> slots_;
  std::unordered_set<uint64_t> cancelled_;
  uint64_t current_tick_ = 0;
  size_t live_ = 0;
};

class Reactor {
 public:
  /// Bitmask of EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP, as delivered by
  /// epoll_wait. Registration is always edge-triggered (EPOLLET); handlers
  /// must therefore drain the fd to EAGAIN.
  using FdHandler = std::function<void(uint32_t events)>;
  using TimerId = uint64_t;

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the loop thread. Call exactly once.
  void Start();

  /// Requests exit, wakes the loop, and joins it. Idempotent; must not be
  /// called from the loop thread. Pending posted closures that have not run
  /// yet are discarded.
  void Stop();

  bool InLoopThread() const;

  /// Runs `fn` on the loop thread: inline when already there, else enqueued
  /// and the loop woken. The only thread-safe entry point.
  void Post(std::function<void()> fn) DSGM_EXCLUDES(post_mu_);

  // --- Loop-thread only (or, before Start / after Stop, by a thread that
  // --- Grant()s itself the role) ------------------------------------------

  /// Registers `fd` with the given interest set (edge semantics implied).
  void AddFd(int fd, uint32_t events, FdHandler handler)
      DSGM_REQUIRES(loop_role);
  void ModifyFd(int fd, uint32_t events) DSGM_REQUIRES(loop_role);
  void RemoveFd(int fd) DSGM_REQUIRES(loop_role);

  /// One-shot (or periodic) timer; fires on the loop thread. Returns an id
  /// for CancelTimer. Granularity is the wheel tick (kTickMs).
  TimerId AddTimer(int delay_ms, std::function<void()> fn, bool periodic = false)
      DSGM_REQUIRES(loop_role);
  void CancelTimer(TimerId id) DSGM_REQUIRES(loop_role);

  /// The loop-thread capability. Held by the loop between Start and Stop;
  /// while the loop is not running, an external thread may Grant()/Yield()
  /// it to operate on loop-owned state (e.g. handler teardown).
  ThreadRole loop_role;

  static constexpr int kTickMs = 5;

 private:
  struct TimerEntry {
    std::function<void()> fn;
    int period_ms;  // 0 = one-shot
  };

  void Loop() DSGM_EXCLUDES(post_mu_);
  void Wake();
  void DrainWakeFd() DSGM_REQUIRES(loop_role);
  void RunPosted() DSGM_REQUIRES(loop_role) DSGM_EXCLUDES(post_mu_);
  void AdvanceTimers() DSGM_REQUIRES(loop_role);
  uint64_t NowTick() const;
  int NextWaitMs() const DSGM_REQUIRES(loop_role);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, FdHandler> handlers_ DSGM_GUARDED_BY(loop_role);

  TimerWheel wheel_ DSGM_GUARDED_BY(loop_role);
  std::unordered_map<TimerId, TimerEntry> timers_ DSGM_GUARDED_BY(loop_role);
  TimerId next_timer_id_ DSGM_GUARDED_BY(loop_role) = 1;
  int64_t epoch_nanos_;

  // Shared process-wide instruments (common/metrics.h); resolved once here,
  // relaxed-atomic updates from the loop thread.
  Histogram* const loop_latency_ns_;
  Counter* const timer_fires_;
  Counter* const wakeups_;

  Mutex post_mu_;
  std::vector<std::function<void()>> posted_ DSGM_GUARDED_BY(post_mu_);

  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::thread::id> loop_id_{};
  std::thread thread_;
};

}  // namespace dsgm

#endif  // DSGM_NET_REACTOR_H_
