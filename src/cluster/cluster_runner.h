// Shared result type and protocol-side helpers of the cluster drivers,
// which run behind the public Session API (include/dsgm/session.h,
// Backend::kThreads / kLocalTcp).

#ifndef DSGM_CLUSTER_CLUSTER_RUNNER_H_
#define DSGM_CLUSTER_CLUSTER_RUNNER_H_

#include <cstdint>
#include <vector>

#include "monitor/comm_stats.h"

namespace dsgm {

/// Measurements of one cluster run.
struct ClusterResult {
  /// Wall-clock seconds from the first to the last message the coordinator
  /// received (the paper's runtime metric).
  double runtime_seconds = 0.0;
  /// End-to-end wall-clock of the whole run including setup.
  double wall_seconds = 0.0;
  /// num_events / runtime_seconds (the paper's throughput metric).
  double throughput_events_per_sec = 0.0;
  CommStats comm;
  int64_t events_processed = 0;
  /// Validation: max relative error of coordinator estimates against the
  /// summed site-local exact counts, over counters with exact total >= 64.
  double max_counter_rel_error = 0.0;
  /// Wire bytes actually observed by the transport (framing included).
  /// Zero with transport_measured == false on loopback, which moves no
  /// bytes; CommStats keeps the protocol-level estimate either way.
  uint64_t transport_bytes_up = 0;
  uint64_t transport_bytes_down = 0;
  bool transport_measured = false;
};

class CoordinatorNode;

/// Fills the protocol-side measurements both drivers share once the
/// coordinator finished: comm stats, runtime (the paper's first-to-last
/// message definition), throughput from result->events_processed (which
/// the caller sets beforehand), and the validation metric — max relative
/// error of the coordinator's estimates against `exact_totals`, skipping
/// counters whose exact total is below 64 (noise-dominated).
void FinalizeClusterResult(const CoordinatorNode& coordinator,
                           const std::vector<uint64_t>& exact_totals,
                           ClusterResult* result);

}  // namespace dsgm

#endif  // DSGM_CLUSTER_CLUSTER_RUNNER_H_
