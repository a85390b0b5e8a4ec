// Golden report streams of the counter protocol's drivers. Each case
// replays a fixed-seed ALARM stream and compares what the drivers emitted
// (the ordered (counter, value) reports, the sync replies, the CommStats
// and the estimates) with constants recorded from an earlier build. A
// change to the report coin, the counter-id addressing or the order of
// increments that alters a single report changes a hash here, so speed-ups
// of the increment path must keep these constants as they are.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "bayes/repository.h"
#include "bayes/sampler.h"
#include "cluster/site_node.h"
#include "common/queue.h"
#include "core/counter_layout.h"
#include "core/error_allocation.h"
#include "core/mle_tracker.h"
#include "dsgm/dsgm.h"
#include "monitor/approx_counter.h"
#include "net/channel.h"

namespace dsgm {
namespace {

constexpr int kSites = 4;
constexpr int kEvents = 20000;

/// FNV-1a over the little-endian bytes of `word`.
uint64_t Fnv(uint64_t hash, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (word >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TrackerConfig AlarmConfig() {
  TrackerConfig config;
  config.strategy = TrackingStrategy::kNonUniform;
  config.epsilon = 0.1;
  config.num_sites = kSites;
  config.seed = 20261019;
  return config;
}

std::vector<Instance> AlarmEvents(const BayesianNetwork& net) {
  ForwardSampler sampler(net, /*seed=*/31);
  return sampler.SampleMany(kEvents);
}

/// The two counter ids every variable increments, in the order the
/// drivers increment them.
std::vector<int64_t> EventIds(const CounterLayout& layout, const Instance& x) {
  std::vector<int64_t> ids;
  for (int i = 0; i < layout.num_vars; ++i) {
    const int64_t row = layout.ParentRowOf(i, x);
    ids.push_back(layout.JointId(i, row, x[static_cast<size_t>(i)]));
    ids.push_back(layout.ParentId(i, row));
  }
  return ids;
}

uint64_t HashStats(const CommStats& stats) {
  uint64_t hash = kFnvBasis;
  for (uint64_t field :
       {stats.update_messages, stats.broadcast_messages, stats.sync_messages,
        stats.wire_messages, stats.rounds_advanced, stats.bytes_up,
        stats.bytes_down}) {
    hash = Fnv(hash, field);
  }
  return hash;
}

TEST(CounterGoldenTest, ApproxFamilyReportStream) {
  const BayesianNetwork net = Alarm();
  const CounterLayout layout(net);
  const TrackerConfig config = AlarmConfig();
  CommStats stats;
  ApproxCounterOptions options;
  options.num_sites = kSites;
  options.seed = config.seed;
  ApproxCounterFamily family(LayoutEpsilons(net, config), options, &stats);

  // The family does not expose its reports, but a site's report carries
  // its cumulative local count, which the caller can keep alongside.
  std::vector<std::vector<uint32_t>> local(
      kSites, std::vector<uint32_t>(static_cast<size_t>(layout.total_counters())));
  Rng router(5);
  uint64_t reports = 0;
  uint64_t hash = kFnvBasis;
  for (const Instance& x : AlarmEvents(net)) {
    const int site = static_cast<int>(router.NextBounded(kSites));
    for (const int64_t id : EventIds(layout, x)) {
      const uint32_t count = ++local[static_cast<size_t>(site)][static_cast<size_t>(id)];
      if (!family.Increment(id, site)) continue;
      ++reports;
      hash = Fnv(Fnv(hash, static_cast<uint64_t>(id)), count);
    }
  }
  uint64_t estimates = kFnvBasis;
  for (int64_t c = 0; c < family.num_counters(); ++c) {
    estimates = Fnv(estimates, DoubleBits(family.Estimate(c)));
  }

  EXPECT_EQ(reports, 719746u);
  EXPECT_EQ(hash, 6806159005650013636u);
  EXPECT_EQ(stats.update_messages, 719746u);
  EXPECT_EQ(stats.broadcast_messages, 3716u);
  EXPECT_EQ(stats.sync_messages, 2116u);
  EXPECT_EQ(stats.rounds_advanced, 929u);
  EXPECT_EQ(stats.bytes_up, 2887448u);
  EXPECT_EQ(stats.bytes_down, 44592u);
  EXPECT_EQ(estimates, 15621978955328923713u);
}

/// One tracker over the golden stream: the CommStats and every counter's
/// median estimate, hashed.
void ExpectTrackerGolden(const TrackerConfig& config, uint64_t stats_hash,
                         uint64_t estimates_hash) {
  const BayesianNetwork net = Alarm();
  MleTracker tracker(net, config);
  Rng router(6);
  for (const Instance& x : AlarmEvents(net)) {
    tracker.Observe(x, static_cast<int>(router.NextBounded(kSites)));
  }
  uint64_t estimates = kFnvBasis;
  for (int i = 0; i < net.num_variables(); ++i) {
    for (int64_t row = 0; row < net.parent_cardinality(i); ++row) {
      for (int v = 0; v < net.cardinality(i); ++v) {
        estimates = Fnv(estimates, DoubleBits(tracker.JointCounterEstimate(i, v, row)));
      }
      estimates = Fnv(estimates, DoubleBits(tracker.ParentCounterEstimate(i, row)));
    }
  }
  EXPECT_EQ(HashStats(tracker.comm()), stats_hash);
  EXPECT_EQ(estimates, estimates_hash);
}

TEST(CounterGoldenTest, TrackerWithThreeReplicas) {
  TrackerConfig config = AlarmConfig();
  config.replicas = 3;
  ExpectTrackerGolden(config, 11079765976378884290u, 1359875043484153246u);
}

TEST(CounterGoldenTest, TrackerWithDeterministicCounters) {
  TrackerConfig config = AlarmConfig();
  config.counter_type = CounterType::kDeterministic;
  ExpectTrackerGolden(config, 9580226602675810991u, 11138732584640232422u);
}

TEST(CounterGoldenTest, TrackerExact) {
  TrackerConfig config = AlarmConfig();
  config.strategy = TrackingStrategy::kExactMle;
  ExpectTrackerGolden(config, 3492420090098742219u, 13400945498187206279u);
}

TEST(CounterGoldenTest, InProcessSessionReport) {
  const BayesianNetwork net = Alarm();
  const TrackerConfig config = AlarmConfig();
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kInProcess)
      .WithStrategy(config.strategy)
      .WithEpsilon(config.epsilon)
      .WithSites(kSites)
      .WithSeed(config.seed);
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  for (const Instance& x : AlarmEvents(net)) ASSERT_TRUE((*session)->Push(x).ok());
  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  uint64_t estimates = kFnvBasis;
  for (int64_t c = 0; c < report->model.num_counters(); ++c) {
    estimates = Fnv(estimates, DoubleBits(report->model.CounterEstimate(c)));
  }
  EXPECT_EQ(report->events_processed, kEvents);
  EXPECT_EQ(HashStats(report->comm), 17561681651359334537u);
  EXPECT_EQ(estimates, 15967994980377246110u);
}

TEST(CounterGoldenTest, SiteNodeReportStream) {
  const BayesianNetwork net = Alarm();
  const CounterLayout layout(net);
  // 16 batches of 1250 events; the site takes them 4 at a time
  // (SiteNode::kEventPopBatch) and applies up to 256 advances between pops.
  std::vector<EventBatch> batches(16);
  const std::vector<Instance> events = AlarmEvents(net);
  for (size_t e = 0; e < events.size(); ++e) {
    EventBatch& batch = batches[e * batches.size() / events.size()];
    ++batch.num_events;
    batch.values.insert(batch.values.end(), events[e].begin(), events[e].end());
  }
  // Every counter leaves the exact phase at a probability that varies with
  // its id, from 0.75 down to 0.75 * 2^-9.
  std::vector<RoundAdvance> advances;
  for (int64_t c = 0; c < layout.total_counters(); ++c) {
    const int round = static_cast<int>(c % 10);
    advances.push_back(RoundAdvance{c, round, static_cast<float>(std::ldexp(0.75, -round))});
  }

  BoundedQueue<EventBatch> event_queue(batches.size() + 1);
  BoundedQueue<RoundAdvance> command_queue(advances.size() + 1);
  BoundedQueue<UpdateBundle> update_queue(4096);
  QueueChannel<EventBatch> event_channel(&event_queue);
  QueueChannel<RoundAdvance> command_channel(&command_queue);
  QueueChannel<UpdateBundle> update_channel(&update_queue);
  SiteNode site(/*site_id=*/2, std::make_shared<const CounterLayout>(net),
                /*seed=*/77, &event_channel, &command_channel,
                &update_channel);
  for (const EventBatch& batch : batches) ASSERT_TRUE(event_queue.Push(batch));
  for (const RoundAdvance& advance : advances) {
    ASSERT_TRUE(command_queue.Push(advance));
  }
  event_queue.Close();
  command_queue.Close();
  site.Run();

  std::vector<UpdateBundle> sent;
  update_queue.TryPopBatch(&sent, 4096);
  uint64_t report_bundles = 0;
  uint64_t reports = 0;
  uint64_t report_hash = kFnvBasis;
  uint64_t sync_hash = kFnvBasis;
  for (const UpdateBundle& bundle : sent) {
    uint64_t& hash = bundle.kind == UpdateBundle::Kind::kSync ? sync_hash : report_hash;
    if (bundle.kind == UpdateBundle::Kind::kReports) {
      ++report_bundles;
      reports += bundle.reports.size();
    }
    for (const CounterReport& report : bundle.reports) {
      hash = Fnv(Fnv(hash, static_cast<uint64_t>(report.counter)), report.value);
    }
  }
  const SiteStatsReport stats = site.StatsReport();
  EXPECT_EQ(stats.events_processed, kEvents);
  EXPECT_EQ(report_bundles, 320u);
  EXPECT_EQ(reports, 1093586u);
  EXPECT_EQ(report_hash, 10214444716670172646u);
  EXPECT_EQ(sync_hash, 6648486987313570073u);
  EXPECT_EQ(stats.updates_sent, 320u);
  EXPECT_EQ(stats.syncs_sent, 4u);
  EXPECT_EQ(stats.rounds_seen, 9u);
}

}  // namespace
}  // namespace dsgm
