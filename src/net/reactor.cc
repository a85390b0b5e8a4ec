#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/check.h"

namespace dsgm {

// --- TimerWheel ----------------------------------------------------------

TimerWheel::TimerWheel(int tick_ms, size_t num_slots)
    : tick_ms_(tick_ms), slots_(num_slots) {
  DSGM_CHECK_GT(tick_ms, 0);
  DSGM_CHECK_GT(num_slots, 0u);
  // Power-of-two slot count so the bucket hash is a mask.
  DSGM_CHECK_EQ(num_slots & (num_slots - 1), 0u);
}

void TimerWheel::Schedule(uint64_t id, int delay_ms) {
  const uint64_t delay_ticks = std::max<uint64_t>(
      1, (static_cast<uint64_t>(std::max(delay_ms, 0)) +
          static_cast<uint64_t>(tick_ms_) - 1) /
             static_cast<uint64_t>(tick_ms_));
  const uint64_t expiry = current_tick_ + delay_ticks;
  // Re-scheduling an id that was cancelled but not yet reaped revives it;
  // forget the cancellation.
  cancelled_.erase(id);
  slots_[expiry & (slots_.size() - 1)].push_back(Entry{id, expiry});
  ++live_;
}

void TimerWheel::Cancel(uint64_t id) { cancelled_.insert(id); }

void TimerWheel::DrainSlot(size_t slot, uint64_t now_tick,
                           std::vector<uint64_t>* fired) {
  std::vector<Entry>& bucket = slots_[slot];
  size_t kept = 0;
  for (size_t i = 0; i < bucket.size(); ++i) {
    const Entry entry = bucket[i];
    if (cancelled_.erase(entry.id) > 0) {
      --live_;
      continue;
    }
    if (entry.expiry_tick <= now_tick) {
      fired->push_back(entry.id);
      --live_;
      continue;
    }
    bucket[kept++] = entry;  // A later rotation's timer stays bucketed.
  }
  bucket.resize(kept);
}

void TimerWheel::Advance(uint64_t now_tick, std::vector<uint64_t>* fired) {
  if (now_tick <= current_tick_) return;
  const uint64_t span = now_tick - current_tick_;
  if (span >= slots_.size()) {
    // The loop stalled past a whole rotation; every bucket may hold due
    // timers. One full sweep instead of tick-by-tick.
    current_tick_ = now_tick;
    for (size_t s = 0; s < slots_.size(); ++s) DrainSlot(s, now_tick, fired);
    return;
  }
  while (current_tick_ < now_tick) {
    ++current_tick_;
    DrainSlot(current_tick_ & (slots_.size() - 1), current_tick_, fired);
  }
}

// --- Reactor -------------------------------------------------------------

namespace {

constexpr size_t kWheelSlots = 256;
constexpr int kMaxWaitEvents = 128;

// Registers (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) `fd`, always
// edge-triggered.
void EpollControl(int epoll_fd, int op, int fd, uint32_t events) {
  epoll_event event{};
  event.events = events | EPOLLET;
  event.data.fd = fd;
  DSGM_CHECK_EQ(::epoll_ctl(epoll_fd, op, fd, &event), 0)
      << "epoll_ctl(" << (op == EPOLL_CTL_ADD ? "ADD" : "MOD")
      << ") failed for fd " << fd;
}

}  // namespace

Reactor::Reactor()
    : wheel_(kTickMs, kWheelSlots),
      epoch_nanos_(NowNanos()),
      loop_latency_ns_(
          MetricsRegistry::Global().GetHistogram("net.reactor.loop_ns")),
      timer_fires_(MetricsRegistry::Global().GetCounter("net.reactor.timer_fires")),
      wakeups_(MetricsRegistry::Global().GetCounter("net.reactor.wakeups")) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  DSGM_CHECK_GE(epoll_fd_, 0) << "epoll_create1 failed";
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  DSGM_CHECK_GE(wake_fd_, 0) << "eventfd failed";
  // The loop has not started; the constructing thread holds the role for
  // the initial registration.
  loop_role.Grant();
  AddFd(wake_fd_, EPOLLIN, [this](uint32_t) {
    loop_role.AssertHeld();
    DrainWakeFd();
  });
  loop_role.Yield();
}

Reactor::~Reactor() {
  Stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void Reactor::Start() {
  DSGM_CHECK(!started_.load());
  started_.store(true);
  thread_ = std::thread([this] { Loop(); });
}

void Reactor::Stop() {
  if (!started_.load()) return;
  DSGM_CHECK(!InLoopThread());
  if (!stop_.exchange(true)) Wake();
  if (thread_.joinable()) thread_.join();
}

bool Reactor::InLoopThread() const {
  // Compares against the id published by the loop itself, not
  // thread_.get_id(): the latter races with Start()'s move-assignment while
  // the freshly spawned loop is already running.
  return loop_id_.load(std::memory_order_acquire) == std::this_thread::get_id();
}

void Reactor::Post(std::function<void()> fn) {
  if (InLoopThread()) {
    fn();
    return;
  }
  {
    MutexLock lock(&post_mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void Reactor::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter (impossible here) or EINTR just means the loop
  // is already due to wake.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::DrainWakeFd() {
  uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
  wakeups_->Increment();
}

void Reactor::RunPosted() {
  std::vector<std::function<void()>> batch;
  {
    MutexLock lock(&post_mu_);
    batch.swap(posted_);
  }
  for (std::function<void()>& fn : batch) fn();
}

void Reactor::AddFd(int fd, uint32_t events, FdHandler handler) {
  DSGM_CHECK(handlers_.emplace(fd, std::move(handler)).second)
      << "fd registered twice: " << fd;
  EpollControl(epoll_fd_, EPOLL_CTL_ADD, fd, events);
}

void Reactor::ModifyFd(int fd, uint32_t events) {
  EpollControl(epoll_fd_, EPOLL_CTL_MOD, fd, events);
}

void Reactor::RemoveFd(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Reactor::TimerId Reactor::AddTimer(int delay_ms, std::function<void()> fn,
                                   bool periodic) {
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, TimerEntry{std::move(fn), periodic ? delay_ms : 0});
  wheel_.Schedule(id, delay_ms);
  return id;
}

void Reactor::CancelTimer(TimerId id) {
  if (timers_.erase(id) > 0) wheel_.Cancel(id);
}

uint64_t Reactor::NowTick() const {
  const int64_t elapsed_ms = (NowNanos() - epoch_nanos_) / 1000000;
  return static_cast<uint64_t>(elapsed_ms) / static_cast<uint64_t>(kTickMs);
}

int Reactor::NextWaitMs() const {
  // With no timers armed there is nothing the wheel needs to observe; wake
  // for fds and posts only (capped so a missed wakeup can never hang long).
  if (wheel_.live() == 0) return 200;
  return kTickMs;
}

void Reactor::AdvanceTimers() {
  std::vector<uint64_t> fired;
  wheel_.Advance(NowTick(), &fired);
  for (uint64_t id : fired) {
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // Cancelled after firing was decided.
    timer_fires_->Increment();
    if (it->second.period_ms > 0) {
      wheel_.Schedule(id, it->second.period_ms);
      // Copy before invoking: the callback may CancelTimer(id) — legal, and
      // it must not destroy the std::function currently executing. The
      // reschedule above is undone by Cancel's lazy reap.
      const std::function<void()> fn = it->second.fn;
      fn();
    } else {
      std::function<void()> fn = std::move(it->second.fn);
      timers_.erase(it);
      fn();
    }
  }
}

void Reactor::Loop() {
  loop_id_.store(std::this_thread::get_id(), std::memory_order_release);
  loop_role.Grant();
  epoll_event ready[kMaxWaitEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, ready, kMaxWaitEvents, NextWaitMs());
    if (n < 0) {
      if (errno != EINTR) break;  // Unrecoverable epoll failure.
      n = 0;
    }
    // Iteration latency = the work between two waits (handlers, timers,
    // posted closures) — the time a newly-ready fd can wait before the
    // loop gets back to epoll_wait. The sleep itself is not latency.
    const int64_t work_start = NowNanos();
    for (int i = 0; i < n; ++i) {
      // A handler earlier in this batch may have removed a later fd; the
      // map lookup (not a stale pointer) makes that safe.
      auto it = handlers_.find(ready[i].data.fd);
      if (it == handlers_.end()) continue;
      it->second(ready[i].events);
    }
    AdvanceTimers();
    RunPosted();
    loop_latency_ns_->Record(static_cast<uint64_t>(NowNanos() - work_start));
  }
  // Free the role so the owner may Grant() it for post-Stop teardown of
  // loop-owned state (connections deregistering their fds).
  loop_role.Yield();
}

}  // namespace dsgm
