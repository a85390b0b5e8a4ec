// Micro-benchmarks (google-benchmark): per-increment cost of the counter
// families, per-event cost of the MLE tracker update/query paths, and the
// site's per-event counter stage against an exact count of the same ids.

#include <benchmark/benchmark.h>

#include "bayes/repository.h"
#include "bayes/sampler.h"
#include "core/counter_layout.h"
#include "core/error_allocation.h"
#include "core/mle_tracker.h"
#include "monitor/approx_counter.h"
#include "monitor/counter_protocol.h"
#include "monitor/exact_counter.h"

namespace dsgm {
namespace {

constexpr int kAlarmPoolEvents = 1 << 17;

void BM_ExactCounterIncrement(benchmark::State& state) {
  CommStats stats;
  ExactCounterFamily family(1024, 30, &stats);
  Rng rng(1);
  int64_t c = 0;
  for (auto _ : state) {
    family.Increment(c & 1023, static_cast<int>(c % 30));
    ++c;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactCounterIncrement);

void BM_ApproxCounterIncrement(benchmark::State& state) {
  CommStats stats;
  std::vector<float> epsilons(1024, static_cast<float>(state.range(0)) / 1000.0f);
  ApproxCounterOptions options;
  options.num_sites = 30;
  options.seed = 2;
  ApproxCounterFamily family(epsilons, options, &stats);
  int64_t c = 0;
  for (auto _ : state) {
    family.Increment(c & 1023, static_cast<int>(c % 30));
    ++c;
  }
  state.SetItemsProcessed(state.iterations());
}
// 0.005 (tight, mostly exact phase) vs 0.1 (sampled quickly).
BENCHMARK(BM_ApproxCounterIncrement)->Arg(5)->Arg(100);

void BM_TrackerObserveAlarm(benchmark::State& state) {
  const BayesianNetwork net = Alarm();
  TrackerConfig config;
  config.strategy = static_cast<TrackingStrategy>(state.range(0));
  config.num_sites = 30;
  MleTracker tracker(net, config);
  ForwardSampler sampler(net, 3);
  Rng router(4);
  std::vector<Instance> batch(256);
  for (auto& x : batch) sampler.Sample(&x);
  size_t i = 0;
  for (auto _ : state) {
    tracker.Observe(batch[i & 255], static_cast<int>(router.NextBounded(30)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ToString(config.strategy));
}
BENCHMARK(BM_TrackerObserveAlarm)
    ->Arg(static_cast<int>(TrackingStrategy::kExactMle))
    ->Arg(static_cast<int>(TrackingStrategy::kNonUniform));

/// 2^17 pre-sampled ALARM events, flat (one value per variable).
const std::vector<int32_t>& AlarmEventPool() {
  static const std::vector<int32_t> pool = [] {
    const BayesianNetwork net = Alarm();
    ForwardSampler sampler(net, 11);
    std::vector<int32_t> values;
    Instance x;
    for (int e = 0; e < kAlarmPoolEvents; ++e) {
      sampler.Sample(&x);
      values.insert(values.end(), x.begin(), x.end());
    }
    return values;
  }();
  return pool;
}

/// The site half's per-event stage, as SiteNode runs it: the event's
/// counter ids from the layout, then one report coin per id. The
/// probabilities are warm: those an in-process run of the same stream
/// reached (ALARM, k = 4, ε = 0.1, NONUNIFORM).
void BM_SiteCounterUpdateAlarm(benchmark::State& state) {
  const BayesianNetwork net = Alarm();
  const CounterLayout layout(net);
  const std::vector<int32_t>& pool = AlarmEventPool();
  TrackerConfig config;
  config.num_sites = 4;
  config.epsilon = 0.1;
  CommStats stats;
  ApproxCounterOptions options;
  options.num_sites = config.num_sites;
  ApproxCounterFamily warm(LayoutEpsilons(net, config), options, &stats);
  std::vector<int64_t> ids(2 * static_cast<size_t>(layout.num_vars));
  for (int e = 0; e < kAlarmPoolEvents; ++e) {
    layout.EventIds(pool.data() + static_cast<size_t>(e) * layout.num_vars, ids.data());
    warm.IncrementEvent(ids.data(), static_cast<int>(ids.size()), e % config.num_sites);
  }
  CounterSite site(layout.total_counters(), 3);
  for (int64_t c = 0; c < layout.total_counters(); ++c) {
    site.OnAdvance(c, static_cast<float>(warm.probability(c)));
  }
  int64_t e = 0;
  uint64_t reports = 0;
  for (auto _ : state) {
    layout.EventIds(pool.data() + static_cast<size_t>(e) * layout.num_vars, ids.data());
    for (const int64_t id : ids) reports += site.Increment(id) != 0;
    if (++e == kAlarmPoolEvents) e = 0;
  }
  benchmark::DoNotOptimize(reports);
  state.SetItemsProcessed(state.iterations());
  state.counters["reports_per_event"] =
      static_cast<double>(reports) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SiteCounterUpdateAlarm);

/// The floor for the stage above: the same ids, counted exactly.
void BM_ExactCountAlarm(benchmark::State& state) {
  const BayesianNetwork net = Alarm();
  const CounterLayout layout(net);
  const std::vector<int32_t>& pool = AlarmEventPool();
  std::vector<uint32_t> counts(static_cast<size_t>(layout.total_counters()));
  std::vector<int64_t> ids(2 * static_cast<size_t>(layout.num_vars));
  int64_t e = 0;
  for (auto _ : state) {
    layout.EventIds(pool.data() + static_cast<size_t>(e) * layout.num_vars, ids.data());
    for (const int64_t id : ids) ++counts[static_cast<size_t>(id)];
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
    if (++e == kAlarmPoolEvents) e = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactCountAlarm);

void BM_TrackerJointQueryAlarm(benchmark::State& state) {
  const BayesianNetwork net = Alarm();
  TrackerConfig config;
  config.strategy = TrackingStrategy::kNonUniform;
  config.num_sites = 30;
  MleTracker tracker(net, config);
  ForwardSampler sampler(net, 5);
  Rng router(6);
  Instance x;
  for (int e = 0; e < 20000; ++e) {
    sampler.Sample(&x);
    tracker.Observe(x, static_cast<int>(router.NextBounded(30)));
  }
  Rng event_rng(7);
  TestEventOptions options;
  options.count = 64;
  const std::vector<TestEvent> events = GenerateTestEvents(net, options, event_rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tracker.JointProbability(events[i & 63].assignment));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackerJointQueryAlarm);

void BM_ForwardSampling(benchmark::State& state) {
  const BayesianNetwork net = Hepar();
  ForwardSampler sampler(net, 8);
  Instance x;
  for (auto _ : state) {
    sampler.Sample(&x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardSampling);

}  // namespace
}  // namespace dsgm

BENCHMARK_MAIN();
