// Randomized distributed counters (the paper's Lemma 4) in process: k site
// halves and one coordinator half of the protocol core
// (monitor/counter_protocol.h), every round advance resolved synchronously.

#ifndef DSGM_MONITOR_APPROX_COUNTER_H_
#define DSGM_MONITOR_APPROX_COUNTER_H_

#include <cstdint>
#include <vector>

#include "monitor/counter_family.h"
#include "monitor/counter_protocol.h"

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
  ApproxCounterFamily(const std::vector<float>& epsilons,
                      const ApproxCounterOptions& options, CommStats* stats);

  bool Increment(int64_t counter, int site) override;
  double Estimate(int64_t counter) const override {
    return coordinator_.Estimate(counter);
  }
  uint64_t ExactTotal(int64_t counter) const override;

  int64_t num_counters() const override { return coordinator_.num_counters(); }
  int num_sites() const override { return coordinator_.num_sites(); }
  uint64_t MemoryBytes() const override;

  /// Current round of a counter (observability / tests).
  int round(int64_t counter) const { return coordinator_.round(counter); }
  /// Current reporting probability of a counter.
  double probability(int64_t counter) const {
    return coordinator_.probability(counter);
  }

 private:
  /// Announces every pending advance to all sites and feeds their sync
  /// replies straight back; a settled round may advance again.
  void ResolveAdvances();

  CommStats* stats_;
  std::vector<CounterSite> sites_;
  CounterCoordinator coordinator_;
  std::vector<CounterAdvance> advances_;  // Scratch, empty between calls.
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_APPROX_COUNTER_H_
