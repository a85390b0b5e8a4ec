// Concurrent-ingest coverage: the SPSC ring, the per-site lane hub, and —
// the headline — N producer threads hammering Push/PushBatch on ONE
// Session on every backend, validated by exact-mode count equality against
// a serial run (total exact counts are independent of routing, ordering,
// and interleaving), with a high-frequency Snapshot() poller thread mixed
// in. These suites run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/sharded_router.h"
#include "bayes/repository.h"
#include "bayes/sampler.h"
#include "common/spsc_ring.h"
#include "dsgm/dsgm.h"

namespace dsgm {
namespace {

// --- SpscRing -----------------------------------------------------------

TEST(SpscRingTest, FifoOrderAcrossWraparound) {
  SpscRing<int> ring(4);  // rounds to capacity 4
  EXPECT_EQ(ring.capacity(), 4u);
  std::vector<int> out;
  int next_push = 0;
  int next_pop = 0;
  // Push/pop in a ragged pattern so the indices wrap several times.
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (int i = 0; i < 3; ++i) {
      int value = next_push;
      ASSERT_TRUE(ring.TryPush(std::move(value)));
      ++next_push;
    }
    out.clear();
    ASSERT_EQ(ring.TryPopBatch(&out, 2), 2u);
    for (int value : out) EXPECT_EQ(value, next_pop++);
    out.clear();
    ASSERT_EQ(ring.TryPopBatch(&out, 8), 1u);
    EXPECT_EQ(out[0], next_pop++);
  }
  out.clear();
  EXPECT_EQ(ring.TryPopBatch(&out, 1), 0u);
}

TEST(SpscRingTest, FullPushLeavesItemIntact) {
  SpscRing<std::vector<int>> ring(2);
  ASSERT_TRUE(ring.TryPush({1}));
  ASSERT_TRUE(ring.TryPush({2}));
  std::vector<int> held = {3, 4, 5};
  EXPECT_FALSE(ring.TryPush(std::move(held)));
  EXPECT_EQ(held.size(), 3u);  // not consumed by the failed push
  std::vector<std::vector<int>> out;
  ASSERT_EQ(ring.TryPopBatch(&out, 1), 1u);
  EXPECT_TRUE(ring.TryPush(std::move(held)));
}

TEST(SpscRingTest, ConcurrentTransferDeliversEverythingInOrder) {
  // Yield on the raw ring's full/empty edges: this test drives the ring
  // without the hub's blocking layer, and pure spinning starves the peer
  // on single-core machines.
  constexpr int kItems = 50000;
  SpscRing<int> ring(64);
  std::thread producer([&ring] {
    for (int i = 0; i < kItems;) {
      int value = i;
      if (ring.TryPush(std::move(value))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<int> out;
  out.reserve(kItems);
  std::vector<int> scratch;
  while (out.size() < kItems) {
    scratch.clear();
    if (ring.TryPopBatch(&scratch, 32) == 0) std::this_thread::yield();
    out.insert(out.end(), scratch.begin(), scratch.end());
  }
  producer.join();
  ASSERT_EQ(out.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(out[i], i);
}

// --- SpscLaneHub --------------------------------------------------------

EventBatch MakeBatch(int32_t tag) {
  EventBatch batch;
  batch.num_events = 1;
  batch.values = {tag};
  return batch;
}

TEST(SpscLaneHubTest, ManyProducersOneConsumerDeliverAll) {
  constexpr int kProducers = 4;
  constexpr int kBatchesPer = 500;
  internal::SpscLaneHub hub(/*lane_capacity=*/8);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    Channel<EventBatch>* lane = hub.AddLane();
    producers.emplace_back([lane, p] {
      for (int b = 0; b < kBatchesPer; ++b) {
        ASSERT_TRUE(lane->Push(MakeBatch(p * kBatchesPer + b)));
      }
    });
  }
  std::vector<EventBatch> got;
  std::vector<EventBatch> scratch;
  while (got.size() < kProducers * kBatchesPer) {
    scratch.clear();
    if (hub.PopBatch(&scratch, 16) == 0) break;
    for (EventBatch& batch : scratch) got.push_back(std::move(batch));
  }
  for (std::thread& thread : producers) thread.join();
  ASSERT_EQ(got.size(), static_cast<size_t>(kProducers * kBatchesPer));
  // Every tag exactly once, and each producer's tags in its push order.
  std::vector<int> last_tag(kProducers, -1);
  std::vector<uint8_t> seen(kProducers * kBatchesPer, 0);
  for (const EventBatch& batch : got) {
    const int tag = batch.values[0];
    ASSERT_FALSE(seen[static_cast<size_t>(tag)]);
    seen[static_cast<size_t>(tag)] = 1;
    const int producer = tag / kBatchesPer;
    ASSERT_GT(tag, last_tag[static_cast<size_t>(producer)]);
    last_tag[static_cast<size_t>(producer)] = tag;
  }
}

TEST(SpscLaneHubTest, CloseReleasesProducersAndDrains) {
  internal::SpscLaneHub hub(/*lane_capacity=*/2);
  Channel<EventBatch>* lane = hub.AddLane();
  ASSERT_TRUE(lane->Push(MakeBatch(1)));
  ASSERT_TRUE(lane->Push(MakeBatch(2)));
  // Lane is full; this push parks until Close fails it.
  std::thread blocked([lane] { EXPECT_FALSE(lane->Push(MakeBatch(3))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hub.Close();
  blocked.join();
  // Buffered batches stay poppable, then the hub reports closed-and-drained.
  std::vector<EventBatch> out;
  EXPECT_EQ(hub.PopBatch(&out, 16), 2u);
  out.clear();
  EXPECT_EQ(hub.PopBatch(&out, 16), 0u);
  // Registration after close hands out a dead lane.
  EXPECT_FALSE(hub.AddLane()->Push(MakeBatch(4)));
}

// --- Concurrent ingest through the Session API --------------------------

std::vector<Instance> SampleEvents(const BayesianNetwork& net, int64_t count) {
  ForwardSampler sampler(net, /*seed=*/4242);
  return sampler.SampleMany(count);
}

std::unique_ptr<Session> BuildExact(const BayesianNetwork& net, Backend backend) {
  SessionBuilder builder(net);
  builder.WithBackend(backend)
      .WithStrategy(TrackingStrategy::kExactMle)
      .WithSites(3)
      .WithSeed(7)
      .WithBatchSize(64);
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(*session);
}

/// Final exact-mode counter estimates after pushing `events` with
/// `num_threads` concurrent producers (1 = the serial reference).
std::vector<double> CountsAfterIngest(const BayesianNetwork& net,
                                      Backend backend,
                                      const std::vector<Instance>& events,
                                      int num_threads, bool use_push_batch) {
  std::unique_ptr<Session> session = BuildExact(net, backend);
  if (num_threads == 1) {
    for (const Instance& event : events) {
      EXPECT_TRUE(session->Push(event).ok());
    }
  } else {
    std::vector<std::thread> threads;
    const size_t per = events.size() / static_cast<size_t>(num_threads);
    for (int t = 0; t < num_threads; ++t) {
      const size_t begin = static_cast<size_t>(t) * per;
      const size_t end =
          t + 1 == num_threads ? events.size() : begin + per;
      threads.emplace_back([&session, &events, begin, end, use_push_batch] {
        if (use_push_batch) {
          std::vector<Instance> slice(events.begin() + begin,
                                      events.begin() + end);
          ASSERT_TRUE(session->PushBatch(slice).ok());
        } else {
          for (size_t e = begin; e < end; ++e) {
            ASSERT_TRUE(session->Push(events[e]).ok());
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(session->events_pushed(), static_cast<int64_t>(events.size()));
  StatusOr<RunReport> report = session->Finish();
  EXPECT_TRUE(report.ok()) << report.status();
  // Exact mode: zero estimator error regardless of thread interleaving.
  EXPECT_DOUBLE_EQ(report->max_counter_rel_error, 0.0);
  std::vector<double> counts;
  counts.reserve(static_cast<size_t>(report->model.num_counters()));
  for (int64_t c = 0; c < report->model.num_counters(); ++c) {
    counts.push_back(report->model.CounterEstimate(c));
  }
  return counts;
}

void ExpectConcurrentMatchesSerial(Backend backend, bool use_push_batch) {
  const BayesianNetwork net = StudentNetwork();
  const std::vector<Instance> events = SampleEvents(net, 12000);
  const std::vector<double> serial =
      CountsAfterIngest(net, backend, events, 1, false);
  const std::vector<double> concurrent =
      CountsAfterIngest(net, backend, events, 4, use_push_batch);
  ASSERT_EQ(serial.size(), concurrent.size());
  for (size_t c = 0; c < serial.size(); ++c) {
    ASSERT_DOUBLE_EQ(serial[c], concurrent[c]) << "counter " << c;
  }
}

TEST(ConcurrentIngestTest, ExactCountsMatchSerialInProcess) {
  ExpectConcurrentMatchesSerial(Backend::kInProcess, false);
}

TEST(ConcurrentIngestTest, ExactCountsMatchSerialThreads) {
  ExpectConcurrentMatchesSerial(Backend::kThreads, false);
}

TEST(ConcurrentIngestTest, ExactCountsMatchSerialLocalTcp) {
  ExpectConcurrentMatchesSerial(Backend::kLocalTcp, false);
}

TEST(ConcurrentIngestTest, PushBatchConcurrentMatchesSerial) {
  ExpectConcurrentMatchesSerial(Backend::kThreads, true);
}

TEST(ConcurrentIngestTest, SnapshotPollerDuringConcurrentIngest) {
  // 4 producers + a high-frequency Snapshot() poller on one kThreads
  // session: every query must succeed and observe non-decreasing progress,
  // and the final counts must still be exactly right.
  const BayesianNetwork net = StudentNetwork();
  const std::vector<Instance> events = SampleEvents(net, 16000);
  std::unique_ptr<Session> session = BuildExact(net, Backend::kThreads);

  std::atomic<bool> done{false};
  std::atomic<int> polls{0};
  std::thread poller([&session, &done, &polls] {
    int64_t last_observed = 0;
    while (!done.load(std::memory_order_acquire)) {
      StatusOr<ModelView> view = session->Snapshot();
      ASSERT_TRUE(view.ok()) << view.status();
      ASSERT_GE(view->events_observed(), last_observed);
      last_observed = view->events_observed();
      polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kThreads = 4;
  std::vector<std::thread> producers;
  const size_t per = events.size() / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    const size_t begin = static_cast<size_t>(t) * per;
    const size_t end = t + 1 == kThreads ? events.size() : begin + per;
    producers.emplace_back([&session, &events, begin, end] {
      for (size_t e = begin; e < end; ++e) {
        ASSERT_TRUE(session->Push(events[e]).ok());
      }
    });
  }
  for (std::thread& thread : producers) thread.join();
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls.load(), 0);

  StatusOr<RunReport> report = session->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->events_processed, static_cast<int64_t>(events.size()));
  EXPECT_DOUBLE_EQ(report->max_counter_rel_error, 0.0);
}

TEST(ConcurrentIngestTest, ExitedProducerThreadsFlushTheirStagedEvents) {
  // Thread churn: short-lived producers whose last partial batch would
  // otherwise sit staged until Finish. The thread-exit flush must deliver
  // it, so a snapshot taken AFTER the threads died (but before Finish)
  // eventually reflects every pushed event.
  const BayesianNetwork net = StudentNetwork();
  const std::vector<Instance> events = SampleEvents(net, 1600);
  std::unique_ptr<Session> session = BuildExact(net, Backend::kThreads);
  constexpr int kChurnThreads = 16;  // 100 events each < batch size 64 * 3
  const size_t per = events.size() / kChurnThreads;
  for (int t = 0; t < kChurnThreads; ++t) {
    const size_t begin = static_cast<size_t>(t) * per;
    const size_t end = t + 1 == kChurnThreads ? events.size() : begin + per;
    std::thread producer([&session, &events, begin, end] {
      for (size_t e = begin; e < end; ++e) {
        ASSERT_TRUE(session->Push(events[e]).ok());
      }
    });
    producer.join();
  }
  EXPECT_EQ(session->events_pushed(), static_cast<int64_t>(events.size()));
  // A root variable's parent counter counts every event; poll until the
  // sites absorbed the exit-flushed batches (delivery is asynchronous).
  const CounterLayout layout(net);
  StatusOr<ModelView> view = session->Snapshot();
  ASSERT_TRUE(view.ok()) << view.status();
  for (int poll = 0; poll < 500 &&
       view->CounterEstimate(layout.ParentId(0, 0)) <
           static_cast<double>(events.size());
       ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    view = session->Snapshot();
    ASSERT_TRUE(view.ok()) << view.status();
  }
  EXPECT_DOUBLE_EQ(view->CounterEstimate(layout.ParentId(0, 0)),
                   static_cast<double>(events.size()));
  StatusOr<RunReport> report = session->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->events_processed, static_cast<int64_t>(events.size()));
  EXPECT_DOUBLE_EQ(report->max_counter_rel_error, 0.0);
}

void ExpectStagedEventsAgeOut(Backend backend) {
  // A producer that keeps pushing, however slowly, must get its staged
  // events to the sites within the staging bound (k × 0.5 ms, checked on
  // its own pushes) even though no batch fills, it never snapshots, and it
  // does not exit. The main thread only polls.
  const BayesianNetwork net = StudentNetwork();
  const std::vector<Instance> events = SampleEvents(net, 18);
  constexpr int kSites = 3;
  SessionBuilder builder(net);
  builder.WithBackend(backend)
      .WithStrategy(TrackingStrategy::kExactMle)
      .WithSites(kSites)
      .WithSeed(7)
      .WithBatchSize(256);
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  Counter* aged_out =
      MetricsRegistry::Global().GetCounter("api.ingest.batches_aged_out");
  const uint64_t aged_out_before = aged_out->Value();

  std::atomic<bool> release{false};
  std::thread producer([&session, &events, &release] {
    for (size_t e = 0; e < 10; ++e) {
      ASSERT_TRUE((*session)->Push(events[e]).ok());
    }
    // Sleeps are lower bounds, so the first 10 events are >= 4 × the bound
    // old when the next 8 pushes (one clock-read stride) arrive.
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        4 * kSites * internal::kStagingDelayPerSiteNanos));
    for (size_t e = 10; e < events.size(); ++e) {
      ASSERT_TRUE((*session)->Push(events[e]).ok());
    }
    // Stay alive, so the thread-exit flush cannot be what delivers them.
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // A root variable's parent counter counts every absorbed event.
  const CounterLayout layout(net);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  double absorbed = 0.0;
  while (absorbed < 10.0 && std::chrono::steady_clock::now() < deadline) {
    StatusOr<ModelView> view = (*session)->Snapshot();
    if (!view.ok()) {
      ADD_FAILURE() << view.status();
      break;  // Still release and join the producer below.
    }
    absorbed = view->CounterEstimate(layout.ParentId(0, 0));
    if (absorbed < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  release.store(true, std::memory_order_release);
  producer.join();
  EXPECT_GE(absorbed, 10.0)
      << "staged events never left their live producer's shard";
  EXPECT_GE(aged_out->Value() - aged_out_before, 1u);

  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->events_processed, static_cast<int64_t>(events.size()));
  EXPECT_DOUBLE_EQ(report->max_counter_rel_error, 0.0);
}

TEST(ConcurrentIngestTest, StagedEventsAgeOutWhileTheirProducerKeepsPushing) {
  ExpectStagedEventsAgeOut(Backend::kThreads);
  ExpectStagedEventsAgeOut(Backend::kLocalTcp);
}

TEST(ConcurrentIngestTest, ApproxModeConcurrentPushStaysBounded) {
  // Approx mode under concurrent ingest: interleavings may change WHICH
  // reports are sampled, but the protocol's error guarantee must hold for
  // any arrival order.
  const BayesianNetwork net = StudentNetwork();
  const std::vector<Instance> events = SampleEvents(net, 20000);
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kThreads)
      .WithStrategy(TrackingStrategy::kUniform)
      .WithEpsilon(0.1)
      .WithSites(3)
      .WithSeed(11);
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  constexpr int kThreads = 4;
  std::vector<std::thread> producers;
  const size_t per = events.size() / kThreads;
  for (int t = 0; t < kThreads; ++t) {
    const size_t begin = static_cast<size_t>(t) * per;
    const size_t end = t + 1 == kThreads ? events.size() : begin + per;
    producers.emplace_back([&session, &events, begin, end] {
      for (size_t e = begin; e < end; ++e) {
        ASSERT_TRUE((*session)->Push(events[e]).ok());
      }
    });
  }
  for (std::thread& thread : producers) thread.join();
  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->events_processed, static_cast<int64_t>(events.size()));
  EXPECT_LT(report->max_counter_rel_error, 0.1);
}

}  // namespace
}  // namespace dsgm
