#include "cluster/cluster_runner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/coordinator_node.h"

namespace dsgm {

void FinalizeClusterResult(const CoordinatorNode& coordinator,
                           const std::vector<uint64_t>& exact_totals,
                           ClusterResult* result) {
  result->runtime_seconds = coordinator.ActiveSeconds();
  result->comm = coordinator.comm();
  result->throughput_events_per_sec =
      result->runtime_seconds > 0.0
          ? static_cast<double>(result->events_processed) / result->runtime_seconds
          : 0.0;
  result->max_counter_rel_error = 0.0;
  for (size_t c = 0; c < exact_totals.size(); ++c) {
    const uint64_t exact = exact_totals[c];
    if (exact < 64) continue;
    const double rel = std::abs(coordinator.Estimate(static_cast<int64_t>(c)) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    result->max_counter_rel_error = std::max(result->max_counter_rel_error, rel);
  }
}

}  // namespace dsgm
