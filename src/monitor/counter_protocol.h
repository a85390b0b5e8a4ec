// The randomized distributed counter (Huang-Yi-Zhang, the paper's Lemma 4),
// transport-free: ApproxCounterFamily drives it synchronously in process,
// SiteNode and CoordinatorNode over channels and sockets.
//
//  * Rounds. Round j uses reporting probability p_j = min(1, c√k/(ε 2^j))
//    (monitor/round_schedule.h). While p_j = 1 the counter is exact.
//  * Site half. Each site keeps a cumulative local count n_i and on every
//    increment reports it with probability p_j. The coin is a pure function
//    of (seed, counter, n_i), so which increments report does not depend on
//    when a round advance reaches the site.
//  * Coordinator half. Per site it keeps the exact count at the last sync
//    (sync_i) and the largest report this round (best_i); its estimate is
//        n̂_i = sync_i                 if no report arrived this round,
//        n̂_i = best_i + (1/p_j - 1)   otherwise,
//    exactly unbiased with variance <= (1 - p_j)/p_j², so E[A] = C and
//    Var[A] = O((εC)²).
//  * Round advance. When Σ_i n̂_i crosses 2^(j+1) the coordinator announces
//    the new round to every live site (k broadcasts) and re-bases each cell
//    on its floor, sync_i = max(sync_i, best_i); the sites reply with their
//    exact counts (k syncs) and the estimator restarts from exact state.
//    The counter advances again only once every owed sync arrived. Rounds
//    whose p stays 1 change silently; leaving the exact phase needs no sync
//    information, but the handshake settles it the same way.
//  * Asynchrony. Messages carry cumulative counts, so stale and reordered
//    ones are max()-ed away; only a sync the site owes settles a round.
//
// Communication per counter: C messages while C <= ~c√k/ε, then
// O(√k/ε + k) per doubling of the count, O((√k/ε + k) log C) in all.

#ifndef DSGM_MONITOR_COUNTER_PROTOCOL_H_
#define DSGM_MONITOR_COUNTER_PROTOCOL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace dsgm {

/// A round advance decided by the coordinator half. The driver announces it
/// to every live site and feeds each reply back through OnSync.
struct CounterAdvance {
  int64_t counter = 0;
  int round = 0;
  float probability = 1.0f;
  /// The counter left the exact phase (p was 1): the coordinator already
  /// knew every count, so the sync replies carry no new information.
  bool from_exact_phase = false;
};

/// Site half: cumulative local counts, the current report bound of every
/// counter, and the report coin.
///
/// The coin. Increment n_i of counter c draws h = SplitMix64(key) with
/// key = coin_seed ^ (c << 32 | n_i) and reports iff u = (h >> 11) · 2^-53
/// is below p. Since h >> 11 is an integer in [0, 2^53) and p is a float,
/// p · 2^53 is exact in a double, so u < p holds exactly when
/// h >> 11 < ceil(p · 2^53). OnAdvance stores that bound (2^53 at p = 1,
/// where every draw passes), so an increment costs one hash and one
/// integer compare, with the same outcome for every key as the
/// floating-point comparison.
class CounterSite {
 public:
  CounterSite(int64_t num_counters, uint64_t seed);

  /// Counts one increment. Returns the new cumulative count when the
  /// increment reports, 0 when it does not.
  uint32_t Increment(int64_t counter) {
    const size_t c = static_cast<size_t>(counter);
    const uint32_t local = ++counts_[c];
    const uint64_t key = coin_seed_ ^ ((static_cast<uint64_t>(counter) << 32) | local);
    return Reports(key, report_bounds_[c]) ? local : 0;
  }

  /// Applies a round advance; returns the exact count for the sync reply.
  uint32_t OnAdvance(int64_t counter, float probability) {
    report_bounds_[static_cast<size_t>(counter)] = ReportBound(probability);
    return counts_[static_cast<size_t>(counter)];
  }

  /// The coin's bound at reporting probability p: ceil(p · 2^53), 2^53 for
  /// p >= 1 and 0 for p <= 0 or NaN (which never report).
  static uint64_t ReportBound(float probability);
  /// The report coin of `key` under `bound`.
  static bool Reports(uint64_t key, uint64_t bound) {
    return (SplitMix64(key) >> 11) < bound;
  }

  int64_t num_counters() const { return static_cast<int64_t>(counts_.size()); }
  const std::vector<uint32_t>& counts() const { return counts_; }
  uint64_t MemoryBytes() const {
    return counts_.size() * (sizeof(uint32_t) + sizeof(uint64_t));
  }

 private:
  uint64_t coin_seed_;  // Keys the per-increment report coins.
  std::vector<uint32_t> counts_;
  std::vector<uint64_t> report_bounds_;
};

/// Coordinator half, over flat [counter * k + site] arrays. OnReport and
/// OnSync return whether the counter's estimate changed and append the
/// advances they trigger; `counter` and `site` must be in range.
class CounterCoordinator {
 public:
  /// `epsilons[c]` is the ε of counter c, each in (0, 1]; empty means exact
  /// mode (reporting probability pinned to 1, no rounds).
  CounterCoordinator(std::vector<float> epsilons, int64_t num_counters,
                     int num_sites, double probability_constant);

  /// A sampled report of cumulative count `value`.
  bool OnReport(int64_t counter, int site, uint32_t value,
                std::vector<CounterAdvance>* advances) {
    const size_t c = static_cast<size_t>(counter);
    const size_t cell = c * static_cast<size_t>(num_sites_) + site;
    const uint32_t sync = sync_counts_[cell];
    const uint32_t best = best_reports_[cell];
    // Stale (reordered) reports carry no new information.
    if (value <= std::max(sync, best)) return false;
    double& estimate = estimates_[c];
    if (best <= sync) {
      // First report this round: site estimate moves from sync to value+gap.
      estimate += (static_cast<double>(value) + Gap(c)) - static_cast<double>(sync);
    } else {
      estimate += static_cast<double>(value) - static_cast<double>(best);
    }
    best_reports_[cell] = value;
    if (estimate >= thresholds_[c]) MaybeAdvance(counter, advances);
    return true;
  }

  /// A site's exact count in reply to a round advance. Only a sync the site
  /// owes settles the round; unsolicited or duplicate ones just max() in.
  bool OnSync(int64_t counter, int site, uint32_t value,
              std::vector<CounterAdvance>* advances);

  /// Marks a site dead and forgives the syncs it owes; later advances skip
  /// it. False when the site is out of range or already cancelled.
  bool CancelSite(int site);

  /// Sync replies owed across all counters and sites.
  int64_t outstanding() const { return outstanding_; }
  bool site_live(int site) const { return !site_dead_[Index(site)]; }

  double Estimate(int64_t counter) const { return estimates_[Index(counter)]; }
  const std::vector<double>& estimates() const { return estimates_; }
  double probability(int64_t counter) const { return probs_[Index(counter)]; }
  int round(int64_t counter) const { return rounds_[Index(counter)]; }
  int64_t num_counters() const { return static_cast<int64_t>(estimates_.size()); }
  int num_sites() const { return num_sites_; }
  uint64_t MemoryBytes() const;

 private:
  static size_t Index(int64_t id) { return static_cast<size_t>(id); }
  /// Advances the counter's round once its estimate crossed the threshold
  /// and no sync of the current round is owed.
  void MaybeAdvance(int64_t counter, std::vector<CounterAdvance>* advances);
  /// The estimator's gap term at the counter's current p.
  double Gap(size_t counter) const {
    const double p = probs_[counter];
    return 1.0 / p - 1.0;
  }

  int num_sites_;
  double safety_;
  // Per counter.
  std::vector<float> epsilons_;        // empty in exact mode
  std::vector<float> probs_;           // p_j of the current round
  std::vector<double> estimates_;      // Σ_i n̂_i, maintained incrementally
  std::vector<double> thresholds_;     // advance when estimate >= threshold
  std::vector<uint8_t> rounds_;
  std::vector<int32_t> sync_pending_;  // syncs owed for the current round
  // Per [counter * k + site] cell.
  std::vector<uint32_t> sync_counts_;   // exact count at last round sync
  std::vector<uint32_t> best_reports_;  // max report this round (<= sync: none)
  std::vector<uint8_t> sync_owed_;      // the site owes a sync reply
  std::vector<uint8_t> site_dead_;      // per site
  // Invariant: outstanding_ == Σ sync_pending_ == Σ sync_owed_.
  int64_t outstanding_ = 0;
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_COUNTER_PROTOCOL_H_
