// Randomized distributed counters (Huang-Yi-Zhang, the paper's Lemma 4).
//
// Protocol (per counter, executed over k sites and one coordinator):
//
//  * Rounds. Round j uses reporting probability p_j = min(1, c√k/(ε 2^j))
//    (monitor/round_schedule.h). While p_j = 1 the counter behaves exactly.
//  * Site side. Each site keeps a cumulative local count n_i. On every
//    increment it sends its current n_i to the coordinator with
//    probability p_j.
//  * Coordinator side. For each site it remembers the exact count at the
//    last round sync (sync_i) and the largest report received this round
//    (best_i). Its per-site estimate is
//        n̂_i = sync_i                       if no report arrived this round,
//        n̂_i = best_i + (1/p_j - 1)         otherwise,
//    which is exactly unbiased with variance <= 2/p_j², giving the
//    family-wide contract E[A] = C and Var[A] = O((εC)²).
//  * Round advance. When the coordinator estimate Σ_i n̂_i crosses
//    2^(j+1) it announces the new round to all sites (k broadcast
//    messages); sites reply with their exact counts (k sync messages) and
//    the estimator restarts from exact state. Transitions between rounds
//    whose p stays 1 are free: nothing about the protocol state changes,
//    so no messages are exchanged (and none would be in a real deployment).
//
// Communication per counter: C messages while C <= ~c√k/ε (the exact
// phase), then O(√k/ε + k) per doubling of the count — i.e.
// O((√k/ε + k) log C) in the sampled regime, matching Lemma 4 up to the
// broadcast term that the paper's O-bound absorbs.
//
// All counters of one tracker live in one family; state is stored in flat
// arrays indexed [counter * k + site] for cache-friendly updates.

#ifndef DSGM_MONITOR_APPROX_COUNTER_H_
#define DSGM_MONITOR_APPROX_COUNTER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "monitor/counter_family.h"

namespace dsgm {

/// Tunables of the randomized counter family.
struct ApproxCounterOptions {
  int num_sites = 30;
  uint64_t seed = 1;
  /// Safety constant c of the round schedule (README "Counter constants").
  double probability_constant = 1.0;
};

/// Family of randomized distributed counters with per-counter error
/// parameters (NONUNIFORM assigns different ε to different variables).
class ApproxCounterFamily final : public CounterFamily {
 public:
  /// `epsilons[c]` is the ε of counter c; values must be in (0, 1].
  ApproxCounterFamily(std::vector<float> epsilons, const ApproxCounterOptions& options,
                      CommStats* stats);

  bool Increment(int64_t counter, int site) override;
  double Estimate(int64_t counter) const override;
  uint64_t ExactTotal(int64_t counter) const override;

  int64_t num_counters() const override { return num_counters_; }
  int num_sites() const override { return num_sites_; }
  uint64_t MemoryBytes() const override;

  /// Current round of a counter (observability / tests).
  int round(int64_t counter) const { return rounds_[static_cast<size_t>(counter)]; }
  /// Current reporting probability of a counter.
  double probability(int64_t counter) const {
    return probs_[static_cast<size_t>(counter)];
  }

 private:
  /// Applies a report of cumulative count `value` from `site` to the
  /// coordinator state of `counter`, then advances rounds as needed.
  void CoordinatorOnReport(int64_t counter, int site, uint32_t value);
  void MaybeAdvanceRounds(int64_t counter);

  int64_t num_counters_;
  int num_sites_;
  double safety_;
  CommStats* stats_;

  // --- Site-side state, [counter * k + site].
  std::vector<uint32_t> site_counts_;
  // --- Coordinator-side state, [counter * k + site].
  std::vector<uint32_t> sync_counts_;  // exact count at last round sync
  std::vector<uint32_t> best_reports_; // max report this round (<= sync: none)
  // --- Coordinator-side per-counter state.
  std::vector<float> epsilons_;
  std::vector<float> probs_;        // p_j of the current round
  std::vector<double> estimates_;   // Σ_i n̂_i, maintained incrementally
  std::vector<double> thresholds_;  // advance when estimate >= threshold
  std::vector<uint8_t> rounds_;

  // One RNG per site: the Bernoulli reporting decisions of different sites
  // are independent streams.
  std::vector<Rng> site_rngs_;
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_APPROX_COUNTER_H_
