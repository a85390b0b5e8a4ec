// Exact distributed counters: the EXACTMLE strawman (paper Section IV-A).

#ifndef DSGM_MONITOR_EXACT_COUNTER_H_
#define DSGM_MONITOR_EXACT_COUNTER_H_

#include <vector>

#include "monitor/counter_family.h"

namespace dsgm {

/// Every increment at a site is forwarded to the coordinator immediately,
/// so the coordinator always holds the exact count (Lemma 5: O(m n) total
/// communication, one update message per counter per event).
class ExactCounterFamily final : public CounterFamily {
 public:
  ExactCounterFamily(int64_t num_counters, int num_sites, CommStats* stats);

  bool Increment(int64_t counter, int site);  // One occurrence.
  bool IncrementEvent(const int64_t* ids, int n, int site) override;
  double Estimate(int64_t counter) const override;
  uint64_t ExactTotal(int64_t counter) const override;

  int64_t num_counters() const override {
    return static_cast<int64_t>(totals_.size());
  }
  int num_sites() const override { return num_sites_; }
  uint64_t MemoryBytes() const override {
    return totals_.size() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> totals_;
  int num_sites_;
  CommStats* stats_;
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_EXACT_COUNTER_H_
