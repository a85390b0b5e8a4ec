// Tests for cluster/: the threaded site/coordinator implementation must
// agree with the synchronous simulation's semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "api/sharded_router.h"
#include "bayes/repository.h"
#include "bayes/sampler.h"
#include "cluster/coordinator_node.h"
#include "cluster/site_node.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "core/counter_layout.h"
#include "dsgm/dsgm.h"
#include "net/channel.h"

namespace dsgm {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 100), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
}

TEST(BoundedQueueTest, CloseDrainsThenFails) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1));
  queue.Close();
  EXPECT_FALSE(queue.Push(2));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 1u);
  EXPECT_EQ(queue.PopBatch(&out, 10), 0u);
}

TEST(BoundedQueueTest, TryPopDoesNotBlock) {
  BoundedQueue<int> queue(4);
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopBatch(&out, 10), 0u);
  ASSERT_TRUE(queue.Push(5));
  EXPECT_EQ(queue.TryPopBatch(&out, 10), 1u);
  EXPECT_EQ(out[0], 5);
}

TEST(BoundedQueueTest, PushBatchNeverOvershootsCapacity) {
  // Regression: PushBatch used to append the whole batch after one
  // not-full wait, ballooning a capacity-4 queue to arbitrary size. It must
  // now chunk against the bound and wait for consumers between chunks.
  constexpr size_t kCapacity = 4;
  constexpr int kItems = 100;
  BoundedQueue<int> queue(kCapacity);
  std::thread producer([&queue] {
    std::vector<int> batch;
    for (int i = 0; i < kItems; ++i) batch.push_back(i);
    EXPECT_TRUE(queue.PushBatch(std::move(batch)));
  });
  std::vector<int> received;
  size_t max_seen = 0;
  while (received.size() < static_cast<size_t>(kItems)) {
    max_seen = std::max(max_seen, queue.size());
    queue.PopBatch(&received, 1);
  }
  producer.join();
  EXPECT_LE(max_seen, kCapacity);
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(BoundedQueueTest, PushBatchSmallBatchStaysAtomic) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.PushBatch({1, 2, 3}));
  EXPECT_EQ(queue.size(), 3u);
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedQueueTest, CloseUnblocksPushBatchMidway) {
  BoundedQueue<int> queue(2);
  std::atomic<bool> returned{false};
  std::thread producer([&queue, &returned] {
    std::vector<int> batch(50, 7);
    EXPECT_FALSE(queue.PushBatch(std::move(batch)));  // Blocked, then closed.
    returned.store(true);
  });
  // Let the producer fill the queue and block on the capacity bound.
  while (queue.size() < 2) std::this_thread::yield();
  EXPECT_FALSE(returned.load());
  queue.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // Chunks pushed before the close stay poppable.
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 2u);
}

TEST(CoordinatorNodeTest, IgnoresForgedSiteAndCounterIds) {
  // Bundles arrive from real network peers in the multi-process deployment;
  // out-of-range ids must be dropped, not indexed.
  BoundedQueue<UpdateBundle> updates(64);
  QueueChannel<UpdateBundle> update_channel(&updates);
  BoundedQueue<RoundAdvance> commands(64);
  QueueChannel<RoundAdvance> command_channel(&commands);
  CoordinatorNode coordinator(/*epsilons=*/{}, /*num_counters=*/2,
                              /*num_sites=*/1, 1.0, &update_channel,
                              {&command_channel});

  UpdateBundle forged_site;
  forged_site.kind = UpdateBundle::Kind::kReports;
  forged_site.site = 99;
  forged_site.reports = {{0, 5}};
  ASSERT_TRUE(updates.Push(forged_site));
  forged_site.site = -1;
  ASSERT_TRUE(updates.Push(forged_site));

  UpdateBundle forged_counters;
  forged_counters.kind = UpdateBundle::Kind::kReports;
  forged_counters.site = 0;
  forged_counters.reports = {{-1, 3}, {1000000007, 4}, {1, 7}};
  ASSERT_TRUE(updates.Push(forged_counters));

  UpdateBundle done;
  done.kind = UpdateBundle::Kind::kSiteDone;
  done.site = 0;
  ASSERT_TRUE(updates.Push(done));

  coordinator.Run();
  EXPECT_EQ(coordinator.Estimate(0), 0.0);  // Forged-site reports dropped.
  EXPECT_EQ(coordinator.Estimate(1), 7.0);  // The one valid report landed.
}

TEST(CoordinatorNodeTest, MidRunAccessorsDoNotRaceTheProtocolThread) {
  // Regression for a defect the thread-safety annotation pass surfaced:
  // Run() wrote the first/last-message timestamps (and comm_) outside any
  // lock while ActiveSeconds()/comm() read them bare — benign for
  // post-join callers, a data race for mid-run ones. Every accessor now
  // takes the protocol mutex; this test exercises all of them against a
  // live Run() thread (TSan covers this suite in CI).
  BoundedQueue<UpdateBundle> updates(64);
  QueueChannel<UpdateBundle> update_channel(&updates);
  BoundedQueue<RoundAdvance> commands(64);
  QueueChannel<RoundAdvance> command_channel(&commands);
  CoordinatorNode coordinator(/*epsilons=*/{}, /*num_counters=*/2,
                              /*num_sites=*/1, 1.0, &update_channel,
                              {&command_channel});
  std::thread protocol([&coordinator] { coordinator.Run(); });

  uint64_t max_updates_seen = 0;
  for (uint32_t i = 1; i <= 200; ++i) {
    UpdateBundle bundle;
    bundle.kind = UpdateBundle::Kind::kReports;
    bundle.site = 0;
    bundle.reports = {{0, i}};
    ASSERT_TRUE(updates.Push(std::move(bundle)));
    // The racing reads under test: every accessor is legal mid-run.
    EXPECT_GE(coordinator.ActiveSeconds(), 0.0);
    EXPECT_GE(coordinator.Estimate(0), 0.0);
    max_updates_seen = std::max(max_updates_seen,
                                coordinator.comm().update_messages);
    std::vector<double> estimates;
    CommStats comm;
    coordinator.SnapshotState(&estimates, &comm);
  }

  UpdateBundle done;
  done.kind = UpdateBundle::Kind::kSiteDone;
  done.site = 0;
  ASSERT_TRUE(updates.Push(done));
  protocol.join();
  EXPECT_EQ(coordinator.Estimate(0), 200.0);
  EXPECT_EQ(coordinator.comm().update_messages, 200u);
  EXPECT_GE(coordinator.comm().update_messages, max_updates_seen);
}

TEST(CoordinatorNodeTest, SettlesAfterRoundAdvanceWith256Sites) {
  // Regression: the per-counter count of owed syncs once lived in a byte,
  // so with 256 live sites an advance recorded 0 owed. Syncs then never
  // settled the round, rounds re-advanced at once, and Run() never exited.
  // One counter with ε = 1 leaves the exact phase at 2^5 and, once that
  // round settled on site 0's 400, advances once more (2^8 <= 400 < 2^9).
  constexpr int kSites = 256;
  BoundedQueue<UpdateBundle> updates(4096);
  QueueChannel<UpdateBundle> update_channel(&updates);
  std::vector<std::unique_ptr<BoundedQueue<RoundAdvance>>> command_queues;
  std::vector<std::unique_ptr<QueueChannel<RoundAdvance>>> command_channels;
  std::vector<Channel<RoundAdvance>*> commands;
  for (int s = 0; s < kSites; ++s) {
    command_queues.push_back(std::make_unique<BoundedQueue<RoundAdvance>>(64));
    command_channels.push_back(std::make_unique<QueueChannel<RoundAdvance>>(
        command_queues.back().get()));
    commands.push_back(command_channels.back().get());
  }
  CoordinatorNode coordinator({1.0f}, /*num_counters=*/1, kSites, 1.0,
                              &update_channel, commands);

  UpdateBundle reports;
  reports.kind = UpdateBundle::Kind::kReports;
  reports.site = 0;
  for (uint32_t value = 1; value <= 400; ++value) {
    reports.reports.push_back({0, value});
  }
  ASSERT_TRUE(updates.Push(reports));
  for (int s = 0; s < kSites; ++s) {
    UpdateBundle done;
    done.kind = UpdateBundle::Kind::kSiteDone;
    done.site = s;
    ASSERT_TRUE(updates.Push(done));
  }

  std::atomic<bool> finished{false};
  std::thread protocol([&] {
    coordinator.Run();
    finished.store(true);
  });
  // No site threads: this thread answers every advance with the site's
  // exact count (400 at site 0, nothing elsewhere) until Run() exits.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int answered = 0;
  while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
    bool idle = true;
    for (int s = 0; s < kSites; ++s) {
      std::vector<RoundAdvance> advances;
      command_queues[static_cast<size_t>(s)]->TryPopBatch(&advances, 64);
      for (const RoundAdvance& advance : advances) {
        idle = false;
        ++answered;
        UpdateBundle sync;
        sync.kind = UpdateBundle::Kind::kSync;
        sync.site = s;
        sync.round = advance.round;
        sync.reports = {{advance.counter, s == 0 ? 400u : 0u}};
        // The queue holds every sync even of a wedged run, so this never
        // blocks past the deadline.
        EXPECT_TRUE(updates.Push(std::move(sync)));
      }
    }
    if (idle) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool settled = finished.load();
  // Unwedge a Run() that never settles so the test fails instead of hanging.
  if (!settled) updates.Close();
  protocol.join();
  ASSERT_TRUE(settled) << "Run() did not exit within the deadline; "
                       << answered << " advances answered";
  EXPECT_EQ(answered, 2 * kSites);
  EXPECT_EQ(coordinator.comm().rounds_advanced, 2u);
  EXPECT_EQ(coordinator.comm().sync_messages, static_cast<uint64_t>(2 * kSites));
  EXPECT_EQ(coordinator.Estimate(0), 400.0);
}

TEST(SiteNodeTest, IgnoresForgedRoundAdvances) {
  const BayesianNetwork net = StudentNetwork();
  BoundedQueue<EventBatch> events(4);
  BoundedQueue<RoundAdvance> commands(16);
  BoundedQueue<UpdateBundle> updates(64);
  QueueChannel<EventBatch> event_channel(&events);
  QueueChannel<RoundAdvance> command_channel(&commands);
  QueueChannel<UpdateBundle> update_channel(&updates);
  SiteNode site(0, std::make_shared<const CounterLayout>(net), /*seed=*/1,
                &event_channel, &command_channel, &update_channel);

  ASSERT_TRUE(commands.Push(RoundAdvance{1000000009, 1, 0.5f}));
  ASSERT_TRUE(commands.Push(RoundAdvance{-5, 1, 0.5f}));
  events.Close();
  commands.Close();
  site.Run();

  // Only the SiteDone marker: forged advances produce no sync reports.
  std::vector<UpdateBundle> out;
  updates.TryPopBatch(&out, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, UpdateBundle::Kind::kSiteDone);
}

/// A SiteNode wired to BoundedQueue channels, run to completion on the
/// calling thread over the given event batches (and round advances, queued
/// before Run()). Returns every UpdateBundle it sent, in order.
std::vector<UpdateBundle> RunSiteOver(const BayesianNetwork& net,
                                      const std::vector<EventBatch>& batches,
                                      const std::vector<RoundAdvance>& advances,
                                      std::vector<uint32_t>* local_counts) {
  BoundedQueue<EventBatch> events(batches.size() + 1);
  BoundedQueue<RoundAdvance> commands(advances.size() + 1);
  BoundedQueue<UpdateBundle> updates(1024);
  QueueChannel<EventBatch> event_channel(&events);
  QueueChannel<RoundAdvance> command_channel(&commands);
  QueueChannel<UpdateBundle> update_channel(&updates);
  SiteNode site(0, std::make_shared<const CounterLayout>(net), /*seed=*/1,
                &event_channel, &command_channel, &update_channel);
  for (const EventBatch& batch : batches) EXPECT_TRUE(events.Push(batch));
  for (const RoundAdvance& advance : advances) {
    EXPECT_TRUE(commands.Push(advance));
  }
  events.Close();
  commands.Close();
  site.Run();
  if (local_counts != nullptr) *local_counts = site.local_counts();
  std::vector<UpdateBundle> out;
  updates.TryPopBatch(&out, 1024);
  return out;
}

/// `count` sampled Student events as one EventBatch.
EventBatch StudentBatch(const BayesianNetwork& net, int count, uint64_t seed) {
  ForwardSampler sampler(net, seed);
  EventBatch batch;
  batch.num_events = count;
  for (const Instance& instance : sampler.SampleMany(count)) {
    batch.values.insert(batch.values.end(), instance.begin(), instance.end());
  }
  return batch;
}

std::vector<UpdateBundle> ReportBundles(const std::vector<UpdateBundle>& sent) {
  std::vector<UpdateBundle> reports;
  for (const UpdateBundle& bundle : sent) {
    if (bundle.kind == UpdateBundle::Kind::kReports) reports.push_back(bundle);
  }
  return reports;
}

TEST(SiteNodeTest, BundlesReportsOfUpTo64EventsPerBatch) {
  // Student: n = 5, every counter starts at p = 1, so every event reports
  // 2n = 10 counters.
  const BayesianNetwork net = StudentNetwork();
  const EventBatch batch = StudentBatch(net, 200, /*seed=*/3);
  const std::vector<UpdateBundle> bundles =
      ReportBundles(RunSiteOver(net, {batch}, {}, nullptr));

  ASSERT_EQ(bundles.size(), 4u);  // 64 + 64 + 64 + 8 events.
  EXPECT_EQ(bundles[0].reports.size(), 640u);
  EXPECT_EQ(bundles[1].reports.size(), 640u);
  EXPECT_EQ(bundles[2].reports.size(), 640u);
  EXPECT_EQ(bundles[3].reports.size(), 80u);

  // Concatenated, the bundles are exactly the per-event report sequence:
  // counter ids in ProcessEvent order, cumulative counts.
  const CounterLayout layout(net);
  std::vector<uint32_t> counts(static_cast<size_t>(layout.total_counters()), 0);
  std::vector<CounterReport> expected;
  for (int32_t e = 0; e < batch.num_events; ++e) {
    const int32_t* values = batch.values.data() + e * layout.num_vars;
    for (int i = 0; i < layout.num_vars; ++i) {
      const int64_t row = layout.ParentRowOf(i, values);
      for (const int64_t counter :
           {layout.JointId(i, row, values[i]), layout.ParentId(i, row)}) {
        expected.push_back(
            CounterReport{counter, ++counts[static_cast<size_t>(counter)]});
      }
    }
  }
  std::vector<CounterReport> shipped;
  for (const UpdateBundle& bundle : bundles) {
    EXPECT_EQ(bundle.site, 0);
    shipped.insert(shipped.end(), bundle.reports.begin(), bundle.reports.end());
  }
  EXPECT_EQ(shipped, expected);
}

TEST(SiteNodeTest, OneEventBatchesShipOneBundleEach) {
  // The in-process shape: a bundle never spans two batches.
  const BayesianNetwork net = StudentNetwork();
  const std::vector<EventBatch> batches = {StudentBatch(net, 1, 4),
                                           StudentBatch(net, 1, 5),
                                           StudentBatch(net, 1, 6)};
  const std::vector<UpdateBundle> bundles =
      ReportBundles(RunSiteOver(net, batches, {}, nullptr));
  ASSERT_EQ(bundles.size(), 3u);
  for (const UpdateBundle& bundle : bundles) {
    EXPECT_EQ(bundle.reports.size(), 10u);
  }
}

TEST(SiteNodeTest, BatchReportsPrecedeTheSyncReply) {
  const BayesianNetwork net = StudentNetwork();
  const CounterLayout layout(net);
  const int root = net.topological_order()[0];
  const int64_t counter = layout.ParentId(root, 0);
  std::vector<uint32_t> local_counts;
  const std::vector<UpdateBundle> sent =
      RunSiteOver(net, {StudentBatch(net, 200, /*seed=*/7)},
                  {RoundAdvance{counter, 1, 0.5f}}, &local_counts);

  size_t reports_seen = 0;
  bool synced = false;
  for (const UpdateBundle& bundle : sent) {
    if (bundle.kind == UpdateBundle::Kind::kReports) {
      EXPECT_FALSE(synced) << "a report bundle followed the sync reply";
      ++reports_seen;
    } else if (bundle.kind == UpdateBundle::Kind::kSync) {
      synced = true;
      ASSERT_EQ(bundle.reports.size(), 1u);
      EXPECT_EQ(bundle.reports[0].counter, counter);
      EXPECT_EQ(bundle.reports[0].value,
                local_counts[static_cast<size_t>(counter)]);
    }
  }
  EXPECT_TRUE(synced);
  EXPECT_EQ(reports_seen, 4u);
  EXPECT_EQ(local_counts[static_cast<size_t>(counter)], 200u);
}

/// Runs `bad` between two well-formed batches and checks that the site
/// dropped it whole: counted on cluster.site.malformed_batches, no report,
/// no local count.
void ExpectBatchDropped(const BayesianNetwork& net, const EventBatch& bad) {
  Counter* const malformed =
      MetricsRegistry::Global().GetCounter("cluster.site.malformed_batches");
  const uint64_t before = malformed->Value();
  std::vector<uint32_t> local_counts;
  const std::vector<UpdateBundle> bundles = ReportBundles(RunSiteOver(
      net, {StudentBatch(net, 1, 11), bad, StudentBatch(net, 1, 12)}, {},
      &local_counts));
  EXPECT_EQ(malformed->Value() - before, 1u);
  // Student has n = 5 variables: one bundle of 2n reports per good event.
  ASSERT_EQ(bundles.size(), 2u);
  for (const UpdateBundle& bundle : bundles) {
    EXPECT_EQ(bundle.reports.size(), 10u);
  }
  uint64_t counted = 0;
  for (const uint32_t count : local_counts) counted += count;
  EXPECT_EQ(counted, 20u);
}

TEST(SiteNodeTest, DropsABatchWithAnOutOfDomainValue) {
  // Node 2 is Grade, with 3 states. A value far past the domain would index
  // far past the site's counters; a negative one would index before them.
  const BayesianNetwork net = StudentNetwork();
  EventBatch huge = StudentBatch(net, 3, /*seed=*/8);
  huge.values[1 * 5 + 2] = 1 << 28;
  ExpectBatchDropped(net, huge);
  EventBatch just_past = StudentBatch(net, 3, /*seed=*/9);
  just_past.values[2 * 5 + 2] = 3;
  ExpectBatchDropped(net, just_past);
  EventBatch negative = StudentBatch(net, 3, /*seed=*/10);
  negative.values[0] = -1;
  ExpectBatchDropped(net, negative);
}

TEST(SiteNodeTest, DropsABatchWhoseValuesDoNotFillItsEvents) {
  // Four events claimed, three and a half rows of values sent: walking four
  // rows would read past the values. Rows of the wrong width go too.
  const BayesianNetwork net = StudentNetwork();
  EventBatch short_batch = StudentBatch(net, 4, /*seed=*/13);
  short_batch.values.resize(3 * 5 + 2);
  ExpectBatchDropped(net, short_batch);
  EventBatch no_values = StudentBatch(net, 4, /*seed=*/14);
  no_values.values.clear();
  ExpectBatchDropped(net, no_values);
  EventBatch wide_rows = StudentBatch(net, 4, /*seed=*/15);
  wide_rows.num_events = 2;  // 20 values: rows of 10 values, not 5.
  ExpectBatchDropped(net, wide_rows);
}

/// One threaded-cluster run through the Session API (the former RunCluster
/// free function's behavior: same seed schedule, same report fields).
RunReport RunThreadedCluster(const BayesianNetwork& net, TrackingStrategy strategy,
                             int sites, int64_t events) {
  StatusOr<std::unique_ptr<Session>> session = SessionBuilder(net)
                                                   .WithBackend(Backend::kThreads)
                                                   .WithStrategy(strategy)
                                                   .WithSites(sites)
                                                   .WithEpsilon(0.1)
                                                   .WithSeed(12345)
                                                   .Build();
  EXPECT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE((*session)->StreamGroundTruth(events).ok());
  StatusOr<RunReport> report = (*session)->Finish();
  EXPECT_TRUE(report.ok()) << report.status();
  return *report;
}

TEST(ClusterTest, ExactModeReproducesCountsExactly) {
  const BayesianNetwork net = StudentNetwork();
  Counter* const batches_flushed =
      MetricsRegistry::Global().GetCounter("api.ingest.batches_flushed");
  const uint64_t batches_before = batches_flushed->Value();
  const RunReport result =
      RunThreadedCluster(net, TrackingStrategy::kExactMle, 3, 20000);
  const uint64_t delivered_batches = batches_flushed->Value() - batches_before;
  EXPECT_EQ(result.events_processed, 20000);
  // Exact mode: coordinator estimates equal summed site counts.
  EXPECT_DOUBLE_EQ(result.max_counter_rel_error, 0.0);
  // 2n update messages per event.
  EXPECT_EQ(result.comm.update_messages,
            static_cast<uint64_t>(20000 * 2 * net.num_variables()));
  // ...but one wire message per run of up to kMaxEventsPerReportBundle
  // events of a batch: every batch adds at most one partial bundle.
  EXPECT_GT(delivered_batches, 0u);
  EXPECT_LE(result.comm.wire_messages,
            static_cast<uint64_t>((20000 + kMaxEventsPerReportBundle - 1) /
                                  kMaxEventsPerReportBundle) +
                delivered_batches);
  EXPECT_GT(result.runtime_seconds, 0.0);
  EXPECT_GT(result.throughput_events_per_sec, 0.0);
}

TEST(ClusterTest, ApproxModeBoundedError) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result =
      RunThreadedCluster(net, TrackingStrategy::kUniform, 4, 50000);
  EXPECT_EQ(result.events_processed, 50000);
  // Counter-level deviation stays within a few epsilon' bands. The
  // per-counter epsilon for UNIFORM on n=5 is 0.1/(16*sqrt(5)) ~ 0.0028;
  // in-flight reports at shutdown can add slack, so the bound is loose.
  EXPECT_LT(result.max_counter_rel_error, 0.05);
  EXPECT_LT(result.comm.update_messages,
            static_cast<uint64_t>(50000 * 2 * net.num_variables()));
}

TEST(ClusterTest, ApproxSendsFewerMessagesThanExact) {
  const BayesianNetwork net = Alarm();
  const RunReport exact =
      RunThreadedCluster(net, TrackingStrategy::kExactMle, 4, 30000);
  const RunReport approx =
      RunThreadedCluster(net, TrackingStrategy::kNonUniform, 4, 30000);
  EXPECT_LT(approx.comm.TotalMessages(), exact.comm.TotalMessages());
  // Bundled wire messages stay ~1 per kMaxEventsPerReportBundle events and
  // site for every algorithm (the paper makes the same observation about
  // its one-bundle-per-event cluster runs); the payload shrinks.
  EXPECT_LT(approx.comm.bytes_up, exact.comm.bytes_up);
}

TEST(ClusterTest, SaturatedSnapshotLagStaysWithinQueueBounds) {
  // One producer pushes flat out while a 1 ms poller snapshots. An event is
  // pushed but not yet visible in a snapshot only while it sits in one of
  // the pipeline's bounded stages, so the lag can never exceed their sum.
  // Bounding the update queue in bundles alone would let that backlog grow
  // with the bundle size (to about 570k events here).
  const BayesianNetwork net = Alarm();
  constexpr int kSites = 4;
  constexpr int kBatch = 256;
  StatusOr<std::unique_ptr<Session>> built = SessionBuilder(net)
                                                 .WithBackend(Backend::kThreads)
                                                 .WithStrategy(TrackingStrategy::kExactMle)
                                                 .WithSites(kSites)
                                                 .WithBatchSize(kBatch)
                                                 .WithSeed(99)
                                                 .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session& session = **built;

  const int64_t batch = kBatch;
  const int64_t bundle = kMaxEventsPerReportBundle;
  const int64_t merge_pop =
      static_cast<int64_t>(CoordinatorNode::kMergePopBatch) * bundle;
  const int64_t bound =
      kSites * batch +  // staged in the producer's shard
      kSites * static_cast<int64_t>(internal::SpscLaneHub::kDefaultLaneCapacity) *
          batch +  // lanes
      kSites * static_cast<int64_t>(SiteNode::kEventPopBatch) *
          batch +  // popped by the sites, reports not yet queued
      static_cast<int64_t>(kUpdateQueueCapacity) * bundle +  // update queue
      merge_pop +                                            // being merged
      CoordinatorNode::kPublishEveryBatches * merge_pop +    // not published
      merge_pop;  // one cadence publish deferred while this poller copies

  const CounterLayout layout(net);
  const int root = net.topological_order()[0];
  ASSERT_EQ(net.parent_cardinality(root), 1);
  const int64_t every_event = layout.ParentId(root, 0);
  const std::vector<Instance> pool = ForwardSampler(net, 5).SampleMany(4096);

  std::atomic<int64_t> pushed{0};
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    int64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(session.Push(pool[static_cast<size_t>(n) % pool.size()]).ok());
      pushed.store(++n, std::memory_order_release);
    }
  });
  int64_t max_lag = 0;
  int samples = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < deadline) {
    const int64_t before = pushed.load(std::memory_order_acquire);
    StatusOr<ModelView> view = session.Snapshot();
    ASSERT_TRUE(view.ok()) << view.status();
    max_lag = std::max(
        max_lag, before - static_cast<int64_t>(view->CounterEstimate(every_event)));
    ++samples;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  producer.join();
  ASSERT_TRUE(session.Finish().ok());

  EXPECT_GT(samples, 0);
  EXPECT_GT(pushed.load(), 0);
  EXPECT_LT(max_lag, bound) << "over " << samples << " snapshots";
}

TEST(ClusterTest, ScalesAcrossSiteCounts) {
  const BayesianNetwork net = StudentNetwork();
  for (int sites : {2, 6, 10}) {
    const RunReport result =
        RunThreadedCluster(net, TrackingStrategy::kUniform, sites, 10000);
    EXPECT_EQ(result.events_processed, 10000) << "sites=" << sites;
    EXPECT_LT(result.max_counter_rel_error, 0.1) << "sites=" << sites;
  }
}

TEST(ClusterTest, SingleSiteWorks) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result =
      RunThreadedCluster(net, TrackingStrategy::kBaseline, 1, 5000);
  EXPECT_EQ(result.events_processed, 5000);
  // The realized error is scheduling-dependent (round advances race event
  // processing), and under sanitizer timings this short run was observed up
  // to ~0.09 on the unmodified pre-transport code; 0.1 matches
  // ScalesAcrossSiteCounts.
  EXPECT_LT(result.max_counter_rel_error, 0.1);
}

}  // namespace
}  // namespace dsgm
