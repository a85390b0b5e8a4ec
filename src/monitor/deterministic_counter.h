// Deterministic threshold counters — the prior-art baseline the paper cites
// as [22] (Keralapura, Cormode, Ramamirtham: "Communication-efficient
// distributed monitoring of thresholded counts", SIGMOD'06).
//
// Each site reports its local count whenever it has grown by a factor
// (1 + ε) since its last report. The coordinator's estimate (the sum of the
// last reports) deterministically satisfies  (1-ε')·C <= A <= C  with
// ε' = ε/(1+ε): each site's unreported tail is at most ε/(1+ε) of its local
// count. Communication is O(k · log_{1+ε} C) messages per counter — the
// factor-k penalty relative to the randomized counter's O(√k/ε · log C)
// is exactly what motivates the paper's use of the Huang-Yi-Zhang sampler;
// bench_ablation_counter_type quantifies the gap.

#ifndef DSGM_MONITOR_DETERMINISTIC_COUNTER_H_
#define DSGM_MONITOR_DETERMINISTIC_COUNTER_H_

#include <cstdint>
#include <vector>

#include "monitor/counter_family.h"

namespace dsgm {

/// Family of deterministic threshold counters with per-counter epsilons.
class DeterministicCounterFamily final : public CounterFamily {
 public:
  /// `epsilons[c]` is the growth threshold of counter c, in (0, 1].
  DeterministicCounterFamily(std::vector<float> epsilons, int num_sites,
                             CommStats* stats);

  bool Increment(int64_t counter, int site);  // One occurrence.
  bool IncrementEvent(const int64_t* ids, int n, int site) override;
  double Estimate(int64_t counter) const override;
  uint64_t ExactTotal(int64_t counter) const override;

  int64_t num_counters() const override { return num_counters_; }
  int num_sites() const override { return num_sites_; }
  uint64_t MemoryBytes() const override;

 private:
  int64_t num_counters_;
  int num_sites_;
  CommStats* stats_;

  std::vector<float> epsilons_;
  // [counter * k + site]
  std::vector<uint32_t> site_counts_;
  std::vector<uint32_t> last_reported_;
  // Per-counter coordinator estimate: sum of last reports.
  std::vector<double> estimates_;
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_DETERMINISTIC_COUNTER_H_
