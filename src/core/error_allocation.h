// Error-budget allocation across the counters of a Bayesian network.
//
// The joint estimate multiplies 2n counter ratios, so each counter gets a
// share nu_i / mu_i of the global error budget epsilon. How that budget is
// split is exactly what distinguishes the paper's three algorithms:
//
//   BASELINE    nu_i = mu_i = eps / (3n)          (union bound, Section IV-C)
//   UNIFORM     nu_i = mu_i = eps / (16 sqrt(n))  (variance analysis, IV-D)
//   NONUNIFORM  nu_i ∝ (J_i K_i)^{1/3}, mu_i ∝ K_i^{1/3}  (eqs. 7-8, IV-E)
//   Naive Bayes the NONUNIFORM solution specialized to the two-layer tree
//               (eq. 9, Section V)
//
// NONUNIFORM minimizes total communication  sum_i w_i / nu_i  subject to the
// variance constraint  sum_i nu_i^2 = (eps/16)^2; the Lagrange-multiplier
// optimum is nu_i = B * w_i^{1/3} / sqrt(sum_j w_j^{2/3}) with B = eps/16.

#ifndef DSGM_CORE_ERROR_ALLOCATION_H_
#define DSGM_CORE_ERROR_ALLOCATION_H_

#include <vector>

#include "bayes/network.h"
#include "core/tracker_config.h"

namespace dsgm {

/// Per-variable error parameters: `joint[i]` configures the counters
/// A_i(x_i, x^par) (epsfnA) and `parent[i]` the counters A_i(x^par)
/// (epsfnB) of Algorithm 1.
struct ErrorAllocation {
  std::vector<double> joint;
  std::vector<double> parent;
};

/// Solves  min sum_i weights[i]/nu_i  s.t.  sum_i nu_i^2 = budget^2  in
/// closed form: nu_i = budget * w_i^{1/3} / sqrt(sum_j w_j^{2/3}).
/// Weights must be positive.
std::vector<double> AllocateBudget(const std::vector<double>& weights, double budget);

/// Communication-cost objective  sum_i weights[i]/nu_i  of an allocation;
/// used by tests and the allocation ablation to compare split rules.
double AllocationCost(const std::vector<double>& weights,
                      const std::vector<double>& nus);

/// Computes the allocation for `strategy` on `network` with global error
/// `epsilon`. `strategy` must not be kExactMle (exact counters carry no
/// error parameter). For kNaiveBayes the network must be a two-layer tree
/// rooted at node 0 (checked).
ErrorAllocation ComputeAllocation(const BayesianNetwork& network,
                                  TrackingStrategy strategy, double epsilon);

/// Per-counter ε in the canonical counter layout (core/counter_layout.h:
/// joint counters first, then parent counters) for `config`: its strategy's
/// allocation, relaxed by config.allocation_relaxation and capped below 1.
/// Empty for kExactMle. Every backend's counters are parameterized by it.
std::vector<float> LayoutEpsilons(const BayesianNetwork& network,
                                  const TrackerConfig& config);

}  // namespace dsgm

#endif  // DSGM_CORE_ERROR_ALLOCATION_H_
