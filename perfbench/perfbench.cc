// The repository benchmark: the paper's tracker (Algorithms 1-3, NONUNIFORM,
// eps = 0.1, k = 4) learning ALARM from a stream while a query thread reads
// the live model, driven through the public Session API only.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//   inproc_closed  kInProcess, one producer pushing as fast as Push returns
//                  (closed loop): the single-threaded baseline of the job.
//                  Each round streams a fixed 1M events, so every round does
//                  the same work.
//   threads_rate   kThreads (4 site threads + coordinator thread), open loop
//                  at a fixed 800k events/s: sharded ingest, lanes, site
//                  counters, coordinator merge, snapshot publication.
//   tcp_rate       kLocalTcp (4 in-process sites on localhost sockets), open
//                  loop at a fixed 150k events/s: the same stages plus the
//                  codec, wire compression and the reactor.
// The fixed rates sit well below what each backend sustains on a 4-core x86
// machine, so the backlog stays flat and the generator on time; at 400k
// events/s the kThreads sites idled and parked often enough that CPU per
// event swung by 25% between runs.
// Four sites keep the busy threads near the core count; with more, thread
// placement alone moved messages per event by 15% between runs.
// An open-loop run streams one session and measures after a 1.5 s warm-up,
// which leaves the protocol's cold start (every counter reporting every
// increment) out of the figures, messages per event included. A closed-
// loop run repeats rounds, each on a fresh session, and reports the best
// round's throughput and CPU per event: on a shared host, cache and memory
// speed swings by tens of percent from second to second, and interference
// only ever makes a round slower. Freshness quantiles are taken per
// 1-second segment (per round in the closed loop) and the median segment
// is reported; messages per event is the median round's.
//
// Freshness. The network gets one extra isolated root variable, the probe,
// which ordinary events hold at 0. Every so often the producer pushes a
// marker: an ordinary event with a nonzero probe value. Probe counters stay
// small enough to remain in the randomized counter's first round (report
// probability 1), so a marker's increment travels the normal protocol path
// unsampled, and the query thread, calling Snapshot() once a millisecond,
// sees its counter step up. Freshness is the time from the marker's due
// time to the return of the first Snapshot() that shows it. In the open loop the due
// time is the schedule's, so a stalled generator is charged for the stall.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 it reports per-layer metrics: spans the benchmark times around
// its calls into each layer (Push, Snapshot, Finish), per-thread CPU, and
// the program's own protocol and metrics-registry counters per event.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bayes/sampler.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/counter_layout.h"
#include "dsgm/dsgm.h"

namespace dsgm {
namespace {

constexpr int kSites = 4;
constexpr double kEpsilon = 0.1;
constexpr size_t kPoolEvents = size_t{1} << 17;  // cycled; a power of two
// Few enough probe values that the probe barely shifts NONUNIFORM's error
// allocation, and that each value stays below 512 increments (the end of
// its counter's report-everything round) for 60 s of markers.
constexpr int kProbeValues = 128;
constexpr int64_t kPollPeriodNanos = 1'000'000;
// 1000 markers per segment leave 50 samples beyond the p95. The p95, not
// the p99: in-process, the p99 is set by which thread wins the tracker
// lock's handoffs and read 1.0-2.1 ms between identical runs.
constexpr double kMarkersPerSecond = 1000.0;
constexpr int64_t kClosedLoopMarkerEvery = 256;
constexpr int64_t kClosedLoopRoundEvents = 1'000'000;
constexpr int64_t kWarmupNanos = 1'500'000'000;
constexpr int64_t kSegmentNanos = 1'000'000'000;
constexpr int kSetupRepeats = 31;
constexpr int64_t kPushSampleEvery = 16;
constexpr int64_t kMarkerDrainTimeoutNanos = 10'000'000'000;

struct Workload {
  const char* name;
  Backend backend;
  double events_per_sec;  // 0 = closed loop
};

constexpr Workload kWorkloads[] = {
    {"inproc_closed", Backend::kInProcess, 0.0},
    {"threads_rate", Backend::kThreads, 800000.0},
    {"tcp_rate", Backend::kLocalTcp, 150000.0},
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    const std::string value = argv[i + 1];
    if (name == "--workload") {
      for (const Workload& workload : kWorkloads) {
        if (value == workload.name) options->workload = &workload;
      }
      if (options->workload == nullptr) return false;
    } else if (name == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (name == "--trace") {
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->workload != nullptr &&
         options->seconds >= 1.0;
}

// ALARM plus the probe variable (last id, no parents, no children).
StatusOr<BayesianNetwork> AlarmWithProbe() {
  const BayesianNetwork alarm = Alarm();
  const int n = alarm.num_variables();
  std::vector<Variable> variables;
  std::vector<CpdTable> cpds;
  Dag dag(n + 1);
  for (int i = 0; i < n; ++i) {
    variables.push_back(alarm.variable(i));
    cpds.push_back(alarm.cpd(i));
    for (const int parent : alarm.dag().parents(i)) {
      const Status added = dag.AddEdge(parent, i);
      if (!added.ok()) return added;
    }
  }
  variables.push_back(Variable{"perfbench_probe", kProbeValues});
  CpdTable probe(kProbeValues, {});
  const Status set = probe.SetRow(
      0, std::vector<double>(kProbeValues, 1.0 / kProbeValues));
  if (!set.ok()) return set;
  cpds.push_back(std::move(probe));
  return BayesianNetwork::Create("alarm+probe", std::move(variables),
                                 std::move(dag), std::move(cpds));
}

StatusOr<std::unique_ptr<Session>> BuildSession(const BayesianNetwork& net,
                                                Backend backend,
                                                uint64_t seed) {
  SessionBuilder builder(net);
  builder.WithBackend(backend)
      .WithStrategy(TrackingStrategy::kNonUniform)
      .WithEpsilon(kEpsilon)
      .WithSites(kSites)
      .WithSeed(seed);
  return builder.Build();
}

struct Marker {
  int64_t counter_id = 0;
  double expected = 0.0;  // the counter's estimate once this marker counts
  int64_t due_nanos = 0;
  int64_t push_nanos = 0;  // when the producer got to it
};

struct Freshness {
  int64_t push_nanos = 0;
  int64_t nanos = 0;  // from due time to the first Snapshot() showing it
};

// Producer -> query-thread handoff of markers still waiting to be seen.
class MarkerBoard {
 public:
  void Add(const Marker& marker) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(marker);
  }

  // Retires every pending marker `view` shows, as seen at `seen_nanos`.
  void Retire(const ModelView& view, int64_t seen_nanos,
              std::vector<Freshness>* seen) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < pending_.size();) {
      const Marker& marker = pending_[i];
      if (view.CounterEstimate(marker.counter_id) < marker.expected - 0.5) {
        ++i;
        continue;
      }
      seen->push_back({marker.push_nanos, seen_nanos - marker.due_nanos});
      pending_[i] = pending_.back();
      pending_.pop_back();
    }
  }

  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Marker> pending_;
};

// What one session's producer does: the schedule origin, and either a fixed
// rate until stopped (open loop) or `max_events` back to back (closed loop).
struct Plan {
  double rate = 0.0;
  int64_t max_events = std::numeric_limits<int64_t>::max();
  int64_t start = 0;
  int64_t begin = 0;  // measurement window [begin, end)
  int64_t end = std::numeric_limits<int64_t>::max();
  bool trace = false;
  bool Measured(int64_t t) const { return t >= begin && t < end; }
};

// State shared by the producer, the query thread and the main thread. Plain
// fields are written by one thread and read by main only after joining it.
struct StreamState {
  std::atomic<bool> stop_producer{false};
  std::atomic<bool> stop_poller{false};
  std::atomic<int64_t> pushed{0};
  MarkerBoard markers;
  // Producer thread.
  int64_t push_failures = 0;
  int64_t max_lateness_nanos = 0;
  int64_t end_wall = 0;
  int64_t end_cpu = 0;
  std::vector<int> probe_uses = std::vector<int>(kProbeValues, 0);
  std::vector<int64_t> push_nanos;
  // Query thread.
  int64_t snapshot_failures = 0;
  std::vector<Freshness> freshness;
  std::vector<int64_t> snapshot_nanos;
};

void SleepUntil(int64_t nanos) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(nanos)));
}

int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ThreadCpuNanos(std::thread& thread) {
  clockid_t clock{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) return 0;
  return CpuNanos(clock);
}

void Produce(Session& session, const std::vector<Instance>& pool,
             const CounterLayout& layout, int probe, const Plan& plan,
             StreamState* state) {
  const int64_t marker_every =
      plan.rate > 0.0
          ? std::max<int64_t>(1, static_cast<int64_t>(plan.rate /
                                                      kMarkersPerSecond))
          : kClosedLoopMarkerEvery;
  Instance marker_event;
  int64_t markers = 0;
  for (int64_t i = 0; i < plan.max_events &&
                      !state->stop_producer.load(std::memory_order_relaxed);
       ++i) {
    int64_t due = 0;
    if (plan.rate > 0.0) {
      due = plan.start +
            static_cast<int64_t>(static_cast<double>(i) * 1e9 / plan.rate);
      const int64_t now = NowNanos();
      if (due > now) {
        SleepUntil(due);
      } else if (plan.Measured(now)) {
        state->max_lateness_nanos =
            std::max(state->max_lateness_nanos, now - due);
      }
    }
    const Instance* event = &pool[static_cast<size_t>(i) & (pool.size() - 1)];
    if (i % marker_every == 0) {
      const int64_t now = NowNanos();
      if (plan.rate <= 0.0) due = now;
      const int value = 1 + static_cast<int>(markers++ % (kProbeValues - 1));
      const int uses = ++state->probe_uses[static_cast<size_t>(value)];
      marker_event = *event;
      marker_event[static_cast<size_t>(probe)] = value;
      event = &marker_event;
      state->markers.Add(Marker{layout.JointId(probe, 0, value),
                                static_cast<double>(uses), due, now});
    }
    Status pushed;
    if (plan.trace && i % kPushSampleEvery == 0) {
      const int64_t begin = NowNanos();
      pushed = session.Push(*event);
      const int64_t end = NowNanos();
      if (plan.Measured(begin)) state->push_nanos.push_back(end - begin);
    } else {
      pushed = session.Push(*event);
    }
    if (!pushed.ok()) ++state->push_failures;
    state->pushed.fetch_add(1, std::memory_order_relaxed);
  }
  state->end_cpu = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
  state->end_wall = NowNanos();
}

void Poll(Session& session, const Plan& plan, StreamState* state) {
  while (!state->stop_poller.load(std::memory_order_acquire)) {
    const int64_t begin = NowNanos();
    const StatusOr<ModelView> view = session.Snapshot();
    const int64_t end = NowNanos();
    if (view.ok()) {
      state->markers.Retire(*view, end, &state->freshness);
    } else {
      ++state->snapshot_failures;
    }
    if (plan.Measured(begin)) state->snapshot_nanos.push_back(end - begin);
    SleepUntil(begin + kPollPeriodNanos);
  }
}

// Clocks and progress at one edge of the measurement window.
struct Reading {
  int64_t wall = 0;
  int64_t process_cpu = 0;
  int64_t producer_cpu = 0;
  int64_t poller_cpu = 0;
  int64_t pushed = 0;
  uint64_t messages = 0;  // the model's communication so far
};

// Nearest-rank quantile; 0 when there are no samples.
double Quantile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return static_cast<double>(samples[std::max<size_t>(rank, 1) - 1]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Everything measured while one session streamed.
struct SessionResult {
  double window_seconds = 0.0;
  double window_events = 0.0;
  double cpu_nanos = 0.0;  // whole process except the query thread
  double producer_cpu_nanos = 0.0;
  std::vector<double> freshness_p50_ms;  // one entry per segment
  std::vector<double> freshness_p95_ms;
  double messages_per_event = 0.0;
  double finish_ms = 0.0;
  int64_t pushed = 0;
  int64_t failed = 0;
  bool correct = false;
  std::vector<int64_t> push_nanos;
  std::vector<int64_t> snapshot_nanos;
  RunReport report;
};

// Streams `plan` into `session` with the query thread running, then
// finishes the session and checks its outputs. The window is cut into
// `num_segments` equal segments for the freshness quantiles.
SessionResult Stream(std::unique_ptr<Session> session,
                     const std::vector<Instance>& pool,
                     const CounterLayout& layout, int probe, const Plan& plan,
                     int num_segments) {
  StreamState state;
  Reading first;
  Reading last;
  if (plan.rate <= 0.0) {
    first.wall = NowNanos();
    first.process_cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
  }
  std::thread poller(Poll, std::ref(*session), std::cref(plan), &state);
  std::thread producer(Produce, std::ref(*session), std::cref(pool),
                       std::cref(layout), probe, std::cref(plan), &state);
  const auto read = [&] {
    Reading reading;
    reading.wall = NowNanos();
    reading.process_cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    reading.producer_cpu = ThreadCpuNanos(producer);
    reading.poller_cpu = ThreadCpuNanos(poller);
    reading.pushed = state.pushed.load(std::memory_order_relaxed);
    const StatusOr<ModelView> view = session->Snapshot();
    if (view.ok()) reading.messages = view->comm().TotalMessages();
    return reading;
  };
  if (plan.rate > 0.0) {
    SleepUntil(plan.begin);
    first = read();
    SleepUntil(plan.end);
    last = read();
    state.stop_producer.store(true, std::memory_order_relaxed);
    producer.join();
  } else {
    producer.join();
    last.wall = state.end_wall;
    last.process_cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    last.producer_cpu = state.end_cpu;
    last.poller_cpu = ThreadCpuNanos(poller);
    last.pushed = state.pushed.load();
  }
  // An exited producer's staged events are parked with the session; the
  // query thread's next Snapshot() delivers them.
  const int64_t drain_deadline = NowNanos() + kMarkerDrainTimeoutNanos;
  while (state.markers.pending() > 0 && NowNanos() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  state.stop_poller.store(true, std::memory_order_release);
  poller.join();
  const int64_t unseen_markers = static_cast<int64_t>(state.markers.pending());

  SessionResult result;
  const int64_t finish_begin = NowNanos();
  StatusOr<RunReport> report = session->Finish();
  result.finish_ms = static_cast<double>(NowNanos() - finish_begin) * 1e-6;
  session.reset();
  result.pushed = state.pushed.load();
  result.failed = state.push_failures + unseen_markers;
  if (!report.ok()) {
    std::cerr << "finish: " << report.status() << "\n";
    result.failed = result.pushed;
    return result;
  }
  result.report = std::move(*report);
  const RunReport& final_report = result.report;
  if (plan.rate <= 0.0) last.messages = final_report.comm.TotalMessages();

  result.window_seconds = static_cast<double>(last.wall - first.wall) * 1e-9;
  result.window_events = static_cast<double>(last.pushed - first.pushed);
  result.messages_per_event =
      static_cast<double>(last.messages - first.messages) / result.window_events;
  result.cpu_nanos = static_cast<double>((last.process_cpu - first.process_cpu) -
                                         (last.poller_cpu - first.poller_cpu));
  result.producer_cpu_nanos =
      static_cast<double>(last.producer_cpu - first.producer_cpu);
  std::vector<std::vector<int64_t>> segments(static_cast<size_t>(num_segments));
  const double segment_nanos =
      static_cast<double>(last.wall - first.wall) / num_segments;
  for (const Freshness& f : state.freshness) {
    if (f.push_nanos < first.wall || f.push_nanos >= last.wall) continue;
    const size_t s = static_cast<size_t>(
        static_cast<double>(f.push_nanos - first.wall) / segment_nanos);
    segments[std::min(s, segments.size() - 1)].push_back(f.nanos);
  }
  bool every_segment_timed = true;
  for (const std::vector<int64_t>& segment : segments) {
    every_segment_timed = every_segment_timed && !segment.empty();
    result.freshness_p50_ms.push_back(Quantile(segment, 0.50) * 1e-6);
    result.freshness_p95_ms.push_back(Quantile(segment, 0.95) * 1e-6);
  }
  result.push_nanos = std::move(state.push_nanos);
  result.snapshot_nanos = std::move(state.snapshot_nanos);

  // Correctness: every event arrived, every marker became visible live, the
  // probe counters are exact, the probe's parent counter (the stream length)
  // and every counter with real mass honour eps.
  result.correct = result.failed == 0 && every_segment_timed &&
                   state.snapshot_failures == 0 &&
                   final_report.events_processed == result.pushed &&
                   final_report.max_counter_rel_error <= kEpsilon;
  for (int value = 1; value < kProbeValues; ++value) {
    const double estimate =
        final_report.model.CounterEstimate(layout.JointId(probe, 0, value));
    if (estimate != state.probe_uses[static_cast<size_t>(value)]) {
      result.correct = false;
    }
  }
  const double length = static_cast<double>(result.pushed);
  if (std::abs(final_report.model.CounterEstimate(layout.ParentId(probe, 0)) -
               length) > kEpsilon * length) {
    result.correct = false;
  }
  std::cerr << "session: " << result.pushed << " events, "
            << result.window_events / result.window_seconds << " events/s and "
            << result.cpu_nanos * 1e-3 / result.window_events
            << " us CPU per event in the window, "
            << state.freshness.size() << " markers seen, "
            << result.snapshot_nanos.size() << " snapshots timed, max "
            << "generator lateness "
            << static_cast<double>(state.max_lateness_nanos) * 1e-6
            << " ms, max counter rel error "
            << final_report.max_counter_rel_error << "\n";
  return result;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const char* name) {
  const MetricsSnapshot::CounterValue* a = after.FindCounter(name);
  if (a == nullptr) return 0;
  const MetricsSnapshot::CounterValue* b = before.FindCounter(name);
  return a->value - (b == nullptr ? 0 : b->value);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Run(const Options& options) {
  const Workload& workload = *options.workload;
  const StatusOr<BayesianNetwork> built_net = AlarmWithProbe();
  if (!built_net.ok()) {
    std::cerr << "network: " << built_net.status() << "\n";
    return 1;
  }
  const BayesianNetwork& net = *built_net;
  const int probe = net.num_variables() - 1;
  const CounterLayout layout(net);

  // Inputs come from the seed alone: a pool of ALARM samples, cycled.
  std::vector<Instance> pool =
      ForwardSampler(net, options.seed).SampleMany(kPoolEvents);
  for (Instance& event : pool) event[static_cast<size_t>(probe)] = 0;

  const auto build = [&]() -> std::unique_ptr<Session> {
    StatusOr<std::unique_ptr<Session>> built =
        BuildSession(net, workload.backend, options.seed);
    if (!built.ok()) {
      std::cerr << "build: " << built.status() << "\n";
      return nullptr;
    }
    return std::move(*built);
  };

  // Set-up time: Build() of an idle session, repeated.
  std::vector<double> setup_seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const int64_t begin = NowNanos();
    std::unique_ptr<Session> session = build();
    setup_seconds.push_back(static_cast<double>(NowNanos() - begin) * 1e-9);
    if (session == nullptr || !session->Finish().ok()) return 1;
  }

  const MetricsSnapshot registry_before = MetricsRegistry::Global().Snapshot();
  // The open loop streams one session for the measured seconds; the closed
  // loop repeats rounds until they are spent.
  const bool open_loop = workload.events_per_sec > 0.0;
  const int64_t measured_nanos =
      static_cast<int64_t>(options.seconds) * kSegmentNanos;
  const int64_t deadline = NowNanos() + measured_nanos;
  std::vector<SessionResult> results;
  do {
    std::unique_ptr<Session> session = build();
    if (session == nullptr) return 1;
    Plan plan;
    plan.trace = options.trace;
    int segments = 1;
    if (open_loop) {
      plan.rate = workload.events_per_sec;
      plan.start = NowNanos() + 1'000'000;
      plan.begin = plan.start + kWarmupNanos;
      plan.end = plan.begin + measured_nanos;
      segments = static_cast<int>(options.seconds);
    } else {
      plan.max_events = kClosedLoopRoundEvents;
      plan.start = plan.begin = NowNanos();
    }
    results.push_back(
        Stream(std::move(session), pool, layout, probe, plan, segments));
  } while (!open_loop && NowNanos() < deadline);
  const MetricsSnapshot registry_after = MetricsRegistry::Global().Snapshot();

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  double events = 0.0;
  double window_events = 0.0;
  double cpu = 0.0;
  double producer_cpu = 0.0;
  // Throughput and CPU per event come from the best round (see the top of
  // the file); the open loop has only one.
  double best_events_per_s = 0.0;
  double best_cpu_us_per_event = std::numeric_limits<double>::infinity();
  CommStats comm;
  double transport_bytes = 0.0;
  double max_rel_error = 0.0;
  std::vector<double> freshness_p50_ms;
  std::vector<double> freshness_p95_ms;
  std::vector<double> messages_per_event;
  std::vector<double> finish_ms;
  std::vector<int64_t> push_nanos;
  std::vector<int64_t> snapshot_nanos;
  for (const SessionResult& r : results) {
    correct = correct && r.correct;
    attempted += r.pushed;
    failed += r.failed;
    events += static_cast<double>(r.report.events_processed);
    window_events += r.window_events;
    cpu += r.cpu_nanos;
    best_events_per_s =
        std::max(best_events_per_s, r.window_events / r.window_seconds);
    best_cpu_us_per_event =
        std::min(best_cpu_us_per_event, r.cpu_nanos * 1e-3 / r.window_events);
    producer_cpu += r.producer_cpu_nanos;
    comm += r.report.comm;
    transport_bytes += static_cast<double>(r.report.transport_bytes_up +
                                           r.report.transport_bytes_down);
    max_rel_error = std::max(max_rel_error, r.report.max_counter_rel_error);
    freshness_p50_ms.insert(freshness_p50_ms.end(), r.freshness_p50_ms.begin(),
                            r.freshness_p50_ms.end());
    freshness_p95_ms.insert(freshness_p95_ms.end(), r.freshness_p95_ms.begin(),
                            r.freshness_p95_ms.end());
    messages_per_event.push_back(r.messages_per_event);
    finish_ms.push_back(r.finish_ms);
    push_nanos.insert(push_nanos.end(), r.push_nanos.begin(), r.push_nanos.end());
    snapshot_nanos.insert(snapshot_nanos.end(), r.snapshot_nanos.begin(),
                          r.snapshot_nanos.end());
  }
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"events_per_s", best_events_per_s, "1/s"},
        {"cpu_us_per_event", best_cpu_us_per_event, "us"},
        {"freshness_p50_ms", Median(freshness_p50_ms), "ms"},
        {"freshness_p95_ms", Median(freshness_p95_ms), "ms"},
        {"messages_per_event", Median(messages_per_event), "msg/event"},
        {"setup_s", Median(setup_seconds), "s"},
    };
  } else {
    const double kevents = events / 1000.0;
    const auto per_kevent = [&](std::initializer_list<const char*> names) {
      uint64_t total = 0;
      for (const char* name : names) {
        total += CounterDelta(registry_before, registry_after, name);
      }
      return static_cast<double>(total) / kevents;
    };
    metrics = {
        {"push_p50_ns", Quantile(push_nanos, 0.50), "ns"},
        {"push_p99_ns", Quantile(push_nanos, 0.99), "ns"},
        {"snapshot_p50_us", Quantile(snapshot_nanos, 0.50) * 1e-3, "us"},
        {"snapshot_p99_us", Quantile(snapshot_nanos, 0.99) * 1e-3, "us"},
        {"finish_ms", Median(finish_ms), "ms"},
        {"producer_cpu_ns_per_event", producer_cpu / window_events, "ns"},
        {"backend_cpu_ns_per_event", (cpu - producer_cpu) / window_events, "ns"},
        {"update_msgs_per_kevent",
         static_cast<double>(comm.update_messages) / kevents, "count"},
        {"sync_msgs_per_kevent",
         static_cast<double>(comm.sync_messages) / kevents, "count"},
        {"broadcast_msgs_per_kevent",
         static_cast<double>(comm.broadcast_messages) / kevents, "count"},
        {"batches_flushed_per_kevent",
         per_kevent({"api.ingest.batches_flushed"}), "count"},
        {"coord_publishes_per_kevent", per_kevent({"cluster.coord.publishes"}),
         "count"},
        {"queue_blocks_per_kevent",
         per_kevent({"common.queue.producer_blocks",
                     "common.queue.consumer_blocks"}),
         "count"},
        {"lane_waits_per_kevent",
         per_kevent({"api.lanehub.lane_full_stalls",
                     "api.lanehub.consumer_parks"}),
         "count"},
        {"reactor_wakeups_per_kevent", per_kevent({"net.reactor.wakeups"}),
         "count"},
        {"wire_bytes_per_event", transport_bytes / events, "bytes"},
        {"max_counter_rel_error", max_rel_error, "ratio"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) {
  dsgm::Options options;
  if (!dsgm::ParseOptions(argc, argv, &options)) {
    std::cerr << "usage: perfbench --workload "
                 "<inproc_closed|threads_rate|tcp_rate> --seed <n> "
                 "--seconds <s >= 1> --trace <0|1>\n";
    return 2;
  }
  return dsgm::Run(options);
}
