// Tests for monitor/counter_protocol.h — the transport-free counter
// protocol core: the coordinator half's handshake bookkeeping, its
// estimator under stale and reordered messages, and a seeded asynchrony
// sweep that drives k site halves and one coordinator half through per-site
// FIFO queues.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "monitor/counter_protocol.h"
#include "monitor/round_schedule.h"

namespace dsgm {
namespace {

/// Answers every pending advance with `counts[site]` from every live site,
/// until no advance is left. Returns how many advances were answered.
int AnswerAdvances(CounterCoordinator* coordinator,
                   const std::vector<uint32_t>& counts,
                   std::vector<CounterAdvance>* advances) {
  int answered = 0;
  while (!advances->empty()) {
    const CounterAdvance advance = advances->back();
    advances->pop_back();
    ++answered;
    for (int s = 0; s < coordinator->num_sites(); ++s) {
      if (!coordinator->site_live(s)) continue;
      coordinator->OnSync(advance.counter, s, counts[static_cast<size_t>(s)],
                          advances);
    }
  }
  return answered;
}

TEST(CounterProtocolTest, PendingReportAcrossAnAdvanceEndsExactAfterTheSyncs) {
  // k = 2, ε = 1: p_0 = min(1, √2) = 1, and the sampled regime starts at
  // round 1 (estimate 2, p = √2/2).
  CounterCoordinator coordinator({1.0f}, 1, /*num_sites=*/2, 1.0);
  std::vector<CounterAdvance> advances;
  coordinator.OnReport(0, 0, 1, &advances);
  coordinator.OnReport(0, 1, 1, &advances);
  ASSERT_EQ(advances.size(), 1u);
  EXPECT_TRUE(advances[0].from_exact_phase);
  AnswerAdvances(&coordinator, {1, 1}, &advances);
  ASSERT_EQ(coordinator.round(0), 1);
  ASSERT_LT(coordinator.probability(0), 1.0);

  // Site 1 reports (its cell now carries the round-1 gap), then site 0's
  // report crosses 2^2 and advances the round while site 1's report is
  // still pending.
  coordinator.OnReport(0, 1, 2, &advances);
  EXPECT_TRUE(advances.empty());
  coordinator.OnReport(0, 0, 2, &advances);
  ASSERT_EQ(advances.size(), 1u);
  EXPECT_FALSE(advances[0].from_exact_phase);
  EXPECT_EQ(coordinator.round(0), 2);
  // Re-based on the floors: both cells count their latest report.
  EXPECT_EQ(coordinator.Estimate(0), 4.0);

  // Site 1 reports once more before it sees the advance, then both sites
  // reply with their exact counts.
  EXPECT_TRUE(coordinator.OnReport(0, 1, 3, &advances));
  AnswerAdvances(&coordinator, {2, 5}, &advances);
  EXPECT_EQ(coordinator.Estimate(0), 7.0);
  EXPECT_EQ(coordinator.outstanding(), 0);
}

TEST(CounterProtocolTest, UnsolicitedAndDuplicateSyncsNeverTakeAnotherSitesSlot) {
  CounterCoordinator coordinator({1.0f}, 1, /*num_sites=*/2, 1.0);
  std::vector<CounterAdvance> advances;
  // Nothing is owed yet: an unsolicited sync counts nothing.
  coordinator.OnSync(0, 0, 0, &advances);
  EXPECT_EQ(coordinator.outstanding(), 0);

  coordinator.OnReport(0, 0, 1, &advances);
  coordinator.OnReport(0, 1, 1, &advances);
  ASSERT_EQ(advances.size(), 1u);
  advances.clear();
  EXPECT_EQ(coordinator.outstanding(), 2);

  coordinator.OnSync(0, 0, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 1);
  // Site 0 again: a duplicate, not site 1's reply.
  coordinator.OnSync(0, 0, 1, &advances);
  coordinator.OnSync(0, 0, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 1);
  coordinator.OnSync(0, 1, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 0);
  coordinator.OnSync(0, 1, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 0);
  EXPECT_TRUE(advances.empty());
  EXPECT_EQ(coordinator.Estimate(0), 2.0);
}

TEST(CounterProtocolTest, CancelSiteForgivesExactlyTheSyncsItOwed) {
  // Two counters, three sites; every site answers counter 0, nobody
  // answers counter 1.
  CounterCoordinator coordinator({1.0f, 1.0f}, 2, /*num_sites=*/3, 1.0);
  std::vector<CounterAdvance> advances;
  for (int64_t counter : {0, 1}) {
    for (int s = 0; s < 3; ++s) coordinator.OnReport(counter, s, 1, &advances);
  }
  ASSERT_EQ(advances.size(), 2u);
  advances.clear();
  EXPECT_EQ(coordinator.outstanding(), 6);
  for (int s = 0; s < 3; ++s) coordinator.OnSync(0, s, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 3);

  EXPECT_TRUE(coordinator.CancelSite(1));
  EXPECT_EQ(coordinator.outstanding(), 2);  // Only site 1's counter-1 sync.
  EXPECT_FALSE(coordinator.site_live(1));
  EXPECT_FALSE(coordinator.CancelSite(1));  // Idempotent.
  EXPECT_FALSE(coordinator.CancelSite(-1));
  EXPECT_FALSE(coordinator.CancelSite(3));
  EXPECT_EQ(coordinator.outstanding(), 2);
  // A late reply from the dead site changes no count.
  coordinator.OnSync(1, 1, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 2);

  coordinator.OnSync(1, 0, 1, &advances);
  coordinator.OnSync(1, 2, 1, &advances);
  EXPECT_EQ(coordinator.outstanding(), 0);

  // Later advances skip the dead site: two live sites owe.
  for (uint32_t value = 2; advances.empty() && value < 1000; ++value) {
    coordinator.OnReport(0, 0, value, &advances);
  }
  ASSERT_EQ(advances.size(), 1u);
  EXPECT_EQ(coordinator.outstanding(), 2);
}

TEST(CounterProtocolTest, StaleAndReorderedReportsLeaveTheEstimate) {
  CounterCoordinator coordinator({1.0f}, 1, /*num_sites=*/1, 1.0);
  std::vector<CounterAdvance> advances;
  for (uint32_t value = 1; value <= 40; ++value) {
    coordinator.OnReport(0, 0, value, &advances);
    AnswerAdvances(&coordinator, {value}, &advances);
  }
  ASSERT_LT(coordinator.probability(0), 1.0);
  ASSERT_TRUE(coordinator.OnReport(0, 0, 45, &advances));
  ASSERT_TRUE(advances.empty());
  const double estimate = coordinator.Estimate(0);
  // Reordered: older than the best report; stale: at or below the sync.
  for (uint32_t value : {44u, 45u, 41u, 40u, 3u}) {
    EXPECT_FALSE(coordinator.OnReport(0, 0, value, &advances)) << value;
    EXPECT_EQ(coordinator.Estimate(0), estimate) << value;
  }
  // A sync older than the pending report keeps the report's estimate.
  EXPECT_FALSE(coordinator.OnSync(0, 0, 42, &advances));
  EXPECT_EQ(coordinator.Estimate(0), estimate);
  EXPECT_TRUE(advances.empty());
}

TEST(CounterProtocolTest, ExactModeNeverAdvances) {
  CounterCoordinator coordinator({}, /*num_counters=*/2, /*num_sites=*/3, 1.0);
  std::vector<CounterAdvance> advances;
  for (uint32_t value = 1; value <= 100000; ++value) {
    coordinator.OnReport(1, static_cast<int>(value % 3), value, &advances);
  }
  EXPECT_TRUE(advances.empty());
  EXPECT_EQ(coordinator.outstanding(), 0);
  EXPECT_EQ(coordinator.round(1), 0);
  EXPECT_EQ(coordinator.probability(1), 1.0);
  // Each site's last report: 99999, 100000 and 99998.
  EXPECT_EQ(coordinator.Estimate(1), 99999.0 + 100000.0 + 99998.0);
  EXPECT_EQ(coordinator.Estimate(0), 0.0);
}

TEST(CounterProtocolTest, SettlesAfterRoundAdvanceWith300Sites) {
  // More live sites than a byte counts: every owed sync must settle the
  // round, or outstanding() never returns to 0 and a driver waits forever.
  constexpr int kSites = 300;
  CounterCoordinator coordinator({1.0f}, 1, kSites, 1.0);
  std::vector<CounterAdvance> advances;
  std::vector<CounterAdvance> decided;
  for (uint32_t value = 1; value <= 400; ++value) {
    coordinator.OnReport(0, 0, value, &advances);
    decided.insert(decided.end(), advances.begin(), advances.end());
    advances.clear();
  }
  // Only the first advance (leaving the exact phase at 2^5) is decided
  // while its syncs are owed.
  ASSERT_EQ(decided.size(), 1u);
  EXPECT_EQ(coordinator.outstanding(), kSites);
  std::vector<uint32_t> counts(kSites, 0);
  counts[0] = 400;
  advances = decided;
  // The settled round advances once more (400 is past 2^6).
  EXPECT_EQ(AnswerAdvances(&coordinator, counts, &advances), 2);
  EXPECT_EQ(coordinator.outstanding(), 0);
  EXPECT_EQ(coordinator.Estimate(0), 400.0);
  EXPECT_EQ(coordinator.round(0), 8);
}

TEST(CounterProtocolTest, SiteHalfReportsByAPureCoin) {
  auto reports_of = [](uint64_t seed) {
    CounterSite site(/*num_counters=*/2, seed);
    for (uint32_t i = 1; i <= 10; ++i) EXPECT_EQ(site.Increment(1), i);
    EXPECT_EQ(site.OnAdvance(1, 0.25f), 10u);
    std::vector<uint32_t> reports;
    for (int i = 0; i < 4000; ++i) {
      const uint32_t value = site.Increment(1);
      if (value != 0) reports.push_back(value);
    }
    EXPECT_EQ(site.counts()[1], 4010u);
    EXPECT_EQ(site.counts()[0], 0u);
    return reports;
  };
  const std::vector<uint32_t> reports = reports_of(9);
  // Binomial(4000, 1/4): mean 1000, sd ~27.
  EXPECT_NEAR(static_cast<double>(reports.size()), 1000.0, 150.0);
  // The coin is a pure function of (seed, counter, count).
  EXPECT_EQ(reports_of(9), reports);
  EXPECT_NE(reports_of(10), reports);
}

/// Inverse of x ^= x >> shift.
uint64_t UnXorShift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int i = 0; i < 64 / shift; ++i) x = y ^ (x >> shift);
  return x;
}

/// Inverse of an odd multiplier mod 2^64 (Newton: each step doubles the
/// correct low bits, from 3).
uint64_t InverseOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// A key whose SplitMix64 hash is `hash` (every step of the mixer is a
/// bijection).
uint64_t KeyHashingTo(uint64_t hash) {
  uint64_t z = UnXorShift(hash, 31) * InverseOdd(0x94d049bb133111ebULL);
  z = UnXorShift(z, 27) * InverseOdd(0xbf58476d1ce4e5b9ULL);
  return UnXorShift(z, 30) - 0x9e3779b97f4a7c15ULL;
}

TEST(CounterProtocolTest, IntegerCoinMatchesUnitDoubleCoin) {
  // The reference: the hash mapped to a double in [0, 1) and compared with
  // p, with p >= 1 always reporting.
  auto reference = [](uint64_t key, float p) {
    const double u = static_cast<double>(SplitMix64(key) >> 11) * 0x1.0p-53;
    return p >= 1.0f || u < static_cast<double>(p);
  };
  std::vector<float> probabilities = {
      1.0f, std::nextafter(1.0f, 0.0f), 0.5f, 1e-30f, 0.0f,
      std::numeric_limits<float>::denorm_min(),
      static_cast<float>(RoundProbability(1.0, kMaxRound, 1, 1.0))};
  for (int j = 1; j <= kMaxRound; ++j) {
    probabilities.push_back(std::ldexp(1.0f, -j));
  }
  Rng rng(2026);
  for (int i = 0; i < 100000; ++i) {
    // Half uniform in [0, 1), half log-uniform down to 2^-126.
    const float mantissa = static_cast<float>(rng.Next() >> 40) * 0x1.0p-24f;
    probabilities.push_back(i % 2 == 0
                                ? mantissa
                                : std::ldexp(0.5f + mantissa / 2.0f,
                                             -static_cast<int>(rng.NextBounded(126))));
  }

  int64_t checked = 0;
  int64_t mismatches = 0;
  auto check = [&](uint64_t key, float p) {
    ++checked;
    if (CounterSite::Reports(key, CounterSite::ReportBound(p)) != reference(key, p)) {
      ++mismatches;
    }
  };
  for (const float p : probabilities) {
    const uint64_t bound = CounterSite::ReportBound(p);
    for (int r = 0; r < 4; ++r) check(rng.Next(), p);
    // Keys whose draw h >> 11 sits just below and at the bound.
    for (const uint64_t draw : {bound - 1, bound}) {
      if (bound == 0 || draw >= (uint64_t{1} << 53)) continue;
      const uint64_t hash = (draw << 11) | (rng.Next() & 0x7ffu);
      const uint64_t key = KeyHashingTo(hash);
      uint64_t state = key;
      ASSERT_EQ(SplitMix64(state), hash);
      check(key, p);
    }
  }
  EXPECT_GE(checked, 500000);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(CounterSite::ReportBound(1.0f), uint64_t{1} << 53);
  EXPECT_EQ(CounterSite::ReportBound(0.5f), uint64_t{1} << 52);
  EXPECT_EQ(CounterSite::ReportBound(std::nanf("")), 0u);
}

// --- Seeded asynchrony sweep ----------------------------------------------

constexpr int kSweepSites = 8;
constexpr float kSweepEpsilon = 0.1f;
constexpr uint32_t kSweepCount = 3000;

struct AsyncOutcome {
  double estimate = 0.0;
  double probability = 1.0;
  int64_t outstanding = 0;
  bool terminated = false;
};

/// One seeded asynchronous run of one counter: kSweepCount increments over
/// kSweepSites site halves, one coordinator half, and a FIFO queue per site
/// in each direction. Each step the scheduler either increments a random
/// site (with probability 3/4 while increments remain) or delivers the head
/// of a random non-empty queue; every message therefore lags the sender by
/// a random number of steps. Runs until the stream ended and every queue
/// drained. Repro of one seed: RunAsync(seed).
AsyncOutcome RunAsync(uint64_t seed) {
  struct Upstream {
    bool sync;
    uint32_t value;
  };
  CounterCoordinator coordinator({kSweepEpsilon}, 1, kSweepSites, 1.0);
  std::vector<CounterSite> sites;
  for (int s = 0; s < kSweepSites; ++s) {
    sites.emplace_back(1, seed * kSweepSites + static_cast<uint64_t>(s));
  }
  std::vector<std::deque<Upstream>> up(kSweepSites);
  std::vector<std::deque<CounterAdvance>> down(kSweepSites);
  std::vector<CounterAdvance> advances;
  auto broadcast = [&] {
    for (const CounterAdvance& advance : advances) {
      for (auto& queue : down) queue.push_back(advance);
    }
    advances.clear();
  };
  Rng scheduler(seed);
  uint32_t remaining = kSweepCount;
  std::vector<int> ready;  // Queue ids: site s upstream = s, downstream = k+s.
  const int64_t step_cap = 100 * static_cast<int64_t>(kSweepCount);
  for (int64_t step = 0; step < step_cap; ++step) {
    ready.clear();
    for (int s = 0; s < kSweepSites; ++s) {
      if (!up[static_cast<size_t>(s)].empty()) ready.push_back(s);
      if (!down[static_cast<size_t>(s)].empty()) ready.push_back(kSweepSites + s);
    }
    if (remaining > 0 && (ready.empty() || scheduler.NextBounded(4) != 0)) {
      const int s = static_cast<int>(scheduler.NextBounded(kSweepSites));
      const uint32_t value = sites[static_cast<size_t>(s)].Increment(0);
      if (value != 0) up[static_cast<size_t>(s)].push_back({false, value});
      --remaining;
      continue;
    }
    if (ready.empty()) {
      AsyncOutcome outcome;
      outcome.estimate = coordinator.Estimate(0);
      outcome.probability = coordinator.probability(0);
      outcome.outstanding = coordinator.outstanding();
      outcome.terminated = true;
      return outcome;
    }
    const int id = ready[scheduler.NextBounded(ready.size())];
    if (id < kSweepSites) {
      const Upstream message = up[static_cast<size_t>(id)].front();
      up[static_cast<size_t>(id)].pop_front();
      if (message.sync) {
        coordinator.OnSync(0, id, message.value, &advances);
      } else {
        coordinator.OnReport(0, id, message.value, &advances);
      }
      broadcast();
    } else {
      const int s = id - kSweepSites;
      const CounterAdvance advance = down[static_cast<size_t>(s)].front();
      down[static_cast<size_t>(s)].pop_front();
      up[static_cast<size_t>(s)].push_back(
          {true, sites[static_cast<size_t>(s)].OnAdvance(advance.counter,
                                                         advance.probability)});
    }
  }
  return AsyncOutcome();  // Did not drain within the step cap.
}

TEST(CounterProtocolTest, AsyncSweepSettlesUnbiasedWithinChebyshev) {
  // Statistics. Once drained, every site i synced at some count s_i in the
  // final round j, and m_i increments followed, each reported with the
  // round's p (the coordinator advances again only after every sync
  // landed). The cell estimate s_i + (last report - s_i) + 1/p - 1 (or s_i
  // with no report) is then exactly unbiased: with G the run of unreported
  // increments at the end, G ~ Geometric(p) truncated at m_i, and the
  // truncated tail contributes (1-p)^m_i (-m_i) to the error's mean, the
  // same as the untruncated geometric's tail. Truncation replaces that tail
  // by its mean, so Var <= Var[Geometric(p)] = (1 - p)/p² per site, and
  //     Var[(A - C)/C] <= v := k (1 - p)/p² / C²        (Lemma 4)
  // with p the seed's final probability. Seeds use independent coins, so
  //  * the mean signed relative error over N seeds has variance at most
  //    Σ v_s / N²; we allow 4 of those standard deviations (a false alarm
  //    has probability ~6e-5 under the central limit theorem);
  //  * by Chebyshev, seed s misses ε with probability q_s <= min(1, v_s/ε²),
  //    so the miss count has mean <= B := Σ min(1, v_s/ε²) and variance
  //    <= Σ q_s <= B; we allow B + 4√B.
  // C = 3000 sits in round 11 (2^11 = 2048), where v/ε² ≈ (2048/3000)² —
  // a bound with teeth.
  constexpr uint64_t kFirstSeed = 1;
  constexpr uint64_t kSeeds = 1000;
  const double count = kSweepCount;
  const double eps = kSweepEpsilon;
  double error_sum = 0.0;
  double variance_sum = 0.0;
  double miss_bound = 0.0;
  int misses = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    const AsyncOutcome outcome = RunAsync(seed);
    ASSERT_TRUE(outcome.terminated) << "repro: RunAsync(" << seed << ")";
    ASSERT_EQ(outcome.outstanding, 0) << "repro: RunAsync(" << seed << ")";
    const double p = outcome.probability;
    const double v = kSweepSites * (1.0 - p) / (p * p) / (count * count);
    const double error = (outcome.estimate - count) / count;
    error_sum += error;
    variance_sum += v;
    miss_bound += std::min(1.0, v / (eps * eps));
    if (std::abs(error) > eps) ++misses;
  }
  const double mean_error = error_sum / kSeeds;
  const double mean_error_sd = std::sqrt(variance_sum) / kSeeds;
  EXPECT_LE(std::abs(mean_error), 4.0 * mean_error_sd)
      << "mean signed relative error " << mean_error;
  EXPECT_LE(misses, miss_bound + 4.0 * std::sqrt(miss_bound))
      << misses << " of " << kSeeds << " seeds missed ε";
}

}  // namespace
}  // namespace dsgm
