// Abstract interface over a family of distributed counters.
//
// The MLE tracker maintains, for every variable i, the counter blocks
// A_i(x_i, x_i^par) and A_i(x_i^par) (Algorithm 1 of the paper). A family
// holds all counters of one tracker in flat arenas so that per-event updates
// touch contiguous metadata instead of millions of tiny heap objects.

#ifndef DSGM_MONITOR_COUNTER_FAMILY_H_
#define DSGM_MONITOR_COUNTER_FAMILY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "monitor/comm_stats.h"

namespace dsgm {

/// Interface shared by the exact and the randomized counter families.
///
/// A family owns `num_counters` logically distributed counters, each
/// incremented from any of `num_sites` sites; communication is charged to a
/// CommStats instance owned by the caller.
class CounterFamily {
 public:
  virtual ~CounterFamily() = default;

  /// Registers one event at `site`: increments counters ids[0..n) in that
  /// order. Returns true iff the site emitted at least one
  /// site->coordinator message (the tracker uses this to account bundled
  /// wire messages). One call per event, not per counter: each concrete
  /// family loops its own non-virtual Increment(counter, site), so the
  /// per-increment work inlines.
  virtual bool IncrementEvent(const int64_t* ids, int n, int site) = 0;

  /// The coordinator's current estimate of the counter's total.
  virtual double Estimate(int64_t counter) const = 0;

  /// Ground-truth total across sites (test oracle; the coordinator of the
  /// randomized family does not use this).
  virtual uint64_t ExactTotal(int64_t counter) const = 0;

  virtual int64_t num_counters() const = 0;
  virtual int num_sites() const = 0;

  /// Bytes of per-counter-and-site state; reported by benches.
  virtual uint64_t MemoryBytes() const = 0;
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_COUNTER_FAMILY_H_
