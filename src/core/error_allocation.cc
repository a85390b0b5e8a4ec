#include "core/error_allocation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dsgm {

std::vector<double> AllocateBudget(const std::vector<double>& weights,
                                   double budget) {
  DSGM_CHECK(!weights.empty());
  DSGM_CHECK_GT(budget, 0.0);
  double norm = 0.0;  // sum of w^{2/3}
  for (double w : weights) {
    DSGM_CHECK_GT(w, 0.0) << "allocation weights must be positive";
    norm += std::cbrt(w * w);
  }
  const double scale = budget / std::sqrt(norm);
  std::vector<double> nus;
  nus.reserve(weights.size());
  for (double w : weights) nus.push_back(scale * std::cbrt(w));
  return nus;
}

double AllocationCost(const std::vector<double>& weights,
                      const std::vector<double>& nus) {
  DSGM_CHECK_EQ(weights.size(), nus.size());
  double cost = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    DSGM_CHECK_GT(nus[i], 0.0);
    cost += weights[i] / nus[i];
  }
  return cost;
}

ErrorAllocation ComputeAllocation(const BayesianNetwork& network,
                                  TrackingStrategy strategy, double epsilon) {
  DSGM_CHECK(strategy != TrackingStrategy::kExactMle)
      << "exact counters take no error parameter";
  const int n = network.num_variables();
  ErrorAllocation allocation;
  allocation.joint.resize(static_cast<size_t>(n));
  allocation.parent.resize(static_cast<size_t>(n));

  switch (strategy) {
    case TrackingStrategy::kBaseline: {
      // Section IV-C: every counter within eps/(3n) keeps the worst-case
      // product within e^{±eps} (Fact 1).
      const double share = epsilon / (3.0 * n);
      for (int i = 0; i < n; ++i) {
        allocation.joint[static_cast<size_t>(i)] = share;
        allocation.parent[static_cast<size_t>(i)] = share;
      }
      break;
    }
    case TrackingStrategy::kUniform: {
      // Section IV-D: variance analysis allows eps/(16 sqrt(n)).
      const double share = epsilon / (16.0 * std::sqrt(static_cast<double>(n)));
      for (int i = 0; i < n; ++i) {
        allocation.joint[static_cast<size_t>(i)] = share;
        allocation.parent[static_cast<size_t>(i)] = share;
      }
      break;
    }
    case TrackingStrategy::kNonUniform:
    case TrackingStrategy::kNaiveBayes: {
      if (strategy == TrackingStrategy::kNaiveBayes) {
        // Sanity: two-layer tree rooted at node 0.
        DSGM_CHECK(network.dag().parents(0).empty())
            << "naive-bayes strategy expects node 0 to be the class root";
        for (int i = 1; i < n; ++i) {
          const auto& parents = network.dag().parents(i);
          DSGM_CHECK(parents.size() == 1 && parents[0] == 0)
              << "naive-bayes strategy expects every feature's only parent to be node 0";
        }
      }
      // Equations (7) and (8): weights J_i*K_i for the joint counters and
      // K_i for the parent counters, each with budget eps/16.
      std::vector<double> joint_weights(static_cast<size_t>(n));
      std::vector<double> parent_weights(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        const double cells = static_cast<double>(network.cardinality(i)) *
                             static_cast<double>(network.parent_cardinality(i));
        joint_weights[static_cast<size_t>(i)] = cells;
        parent_weights[static_cast<size_t>(i)] =
            static_cast<double>(network.parent_cardinality(i));
      }
      allocation.joint = AllocateBudget(joint_weights, epsilon / 16.0);
      allocation.parent = AllocateBudget(parent_weights, epsilon / 16.0);
      break;
    }
    case TrackingStrategy::kExactMle:
      break;  // Unreachable; guarded above.
  }
  return allocation;
}

std::vector<float> LayoutEpsilons(const BayesianNetwork& network,
                                  const TrackerConfig& config) {
  if (config.strategy == TrackingStrategy::kExactMle) return {};
  const ErrorAllocation allocation =
      ComputeAllocation(network, config.strategy, config.epsilon);
  auto effective = [&config](double nu) {
    return static_cast<float>(std::min(0.999, config.allocation_relaxation * nu));
  };
  const int n = network.num_variables();
  std::vector<float> epsilons;
  epsilons.reserve(static_cast<size_t>(network.TotalJointCells() +
                                       network.TotalParentCells()));
  for (int i = 0; i < n; ++i) {
    const int64_t cells = network.parent_cardinality(i) * network.cardinality(i);
    epsilons.insert(epsilons.end(), static_cast<size_t>(cells),
                    effective(allocation.joint[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < n; ++i) {
    epsilons.insert(epsilons.end(), static_cast<size_t>(network.parent_cardinality(i)),
                    effective(allocation.parent[static_cast<size_t>(i)]));
  }
  return epsilons;
}

}  // namespace dsgm
