// Continuous distributed maintenance of an approximate MLE of a Bayesian
// network — the paper's master algorithms INIT / UPDATE / QUERY
// (Algorithms 1-3) over exact or randomized distributed counters.

#ifndef DSGM_CORE_MLE_TRACKER_H_
#define DSGM_CORE_MLE_TRACKER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bayes/network.h"
#include "core/counter_layout.h"
#include "core/error_allocation.h"
#include "core/tracker_config.h"
#include "monitor/comm_stats.h"
#include "monitor/counter_family.h"

namespace dsgm {

/// Maintains, at a simulated coordinator, the parameters of `network`'s
/// structure learned from a stream of instances arriving at `num_sites`
/// distributed sites.
///
/// For every variable i the tracker owns J_i*K_i joint counters
/// A_i(x_i, x^par) and K_i parent counters A_i(x^par); Observe() increments
/// the two counters of every variable (Algorithm 2), and the query methods
/// estimate CPD entries and joint probabilities from the counter estimates
/// (Algorithm 3). The network object provides only the structure and the
/// domain sizes — its CPDs are never read, they are what is being learned.
///
/// The network must outlive the tracker.
class MleTracker {
 public:
  MleTracker(const BayesianNetwork& network, const TrackerConfig& config);

  MleTracker(const MleTracker&) = delete;
  MleTracker& operator=(const MleTracker&) = delete;

  /// Registers one training instance received at `site` (Algorithm 2).
  void Observe(const Instance& instance, int site);

  /// Estimated CPD entry p̃_i(value | parent_row) = A_i(v,row)/A_i(row).
  /// Returns the uniform 1/J_i when the parent row has no observed mass.
  double CpdEstimate(int variable, int value, int64_t parent_row) const;

  /// Estimated probability of an ancestrally-closed partial assignment
  /// (Algorithm 3 factors over the subset's chain rule).
  double JointProbability(const PartialAssignment& assignment) const;

  /// Estimated probability of a full instance.
  double JointProbability(const Instance& instance) const;

  // --- Observability ---------------------------------------------------

  int64_t events_observed() const { return events_observed_; }
  const CommStats& comm() const { return comm_; }
  const TrackerConfig& config() const { return config_; }
  const BayesianNetwork& network() const { return *network_; }
  /// Per-counter-state memory across replicas.
  uint64_t MemoryBytes() const;

  // --- Raw counter access (tests and diagnostics) ----------------------

  /// Median-of-replicas estimate / exact total of a single joint counter.
  double JointCounterEstimate(int variable, int value, int64_t parent_row) const;
  uint64_t JointCounterExact(int variable, int value, int64_t parent_row) const;
  double ParentCounterEstimate(int variable, int64_t parent_row) const;
  uint64_t ParentCounterExact(int variable, int64_t parent_row) const;

  int64_t num_joint_counters() const { return layout_.total_joint; }
  int64_t num_parent_counters() const { return layout_.total_parent; }

 private:
  int64_t JointCounterId(int variable, int value, int64_t parent_row) const;
  int64_t ParentCounterId(int variable, int64_t parent_row) const;
  /// Median across replicas of one counter's estimate.
  double MedianEstimate(int64_t counter) const;

  const BayesianNetwork* network_;
  TrackerConfig config_;
  CommStats comm_;

  // The canonical counter-id flattening (core/counter_layout.h): joint
  // counters first, then parent counters; one id space per replica.
  CounterLayout layout_;

  // One counter family per replica (Theorem 1's median amplification).
  std::vector<std::unique_ptr<CounterFamily>> replicas_;

  int64_t events_observed_ = 0;
};

}  // namespace dsgm

#endif  // DSGM_CORE_MLE_TRACKER_H_
