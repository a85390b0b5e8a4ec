// Synthetic network generation and structural transformations.
//
// The bnlearn repository networks the paper evaluates on (ALARM, HEPAR II,
// LINK, MUNIN) are not redistributable/fetchable in this offline build, so
// the repository module (bayes/repository.h) generates stand-ins through
// GenerateNetwork that match each network's node count, edge count,
// domain-size range, and free-parameter count. See README "Substitutions
// for the paper's setup" for the substitution argument. This file also
// implements the two structural transformations of the paper's evaluation:
// domain inflation (NEW-ALARM) and iterative sink removal (the Fig. 9
// scaling series).

#ifndef DSGM_BAYES_GENERATOR_H_
#define DSGM_BAYES_GENERATOR_H_

#include <cstdint>
#include <string>

#include "bayes/network.h"
#include "common/status.h"

namespace dsgm {

/// Declarative description of a synthetic network.
struct NetworkSpec {
  std::string name;
  int num_nodes = 0;
  int num_edges = 0;
  int min_cardinality = 2;
  int max_cardinality = 4;
  /// Desired total free parameters (sum of K_i * (J_i - 1)); 0 disables the
  /// repair loop and keeps the initially sampled cardinalities.
  int64_t target_params = 0;
  /// Accepted relative deviation from target_params.
  double param_tolerance = 0.05;
  /// In-degree cap (the paper's d).
  int max_parents = 4;
  /// Parents are drawn from the `edge_window` immediately preceding nodes in
  /// topological order; 0 means any earlier node. Local windows mimic the
  /// layered structure of the real diagnostic networks.
  int edge_window = 0;
  /// Dirichlet concentration for CPD rows; < 1 gives the skewed conditional
  /// distributions typical of the real networks.
  double dirichlet_alpha = 0.5;
  /// Probability floor for every CPD entry (lambda of Lemma 3).
  double min_prob = 0.02;
};

/// Generates a random network matching `spec`, deterministically in `seed`.
///
/// Construction: nodes 0..n-1 are created in topological order; n-1 "spine"
/// edges attach each node to a random earlier parent (requires
/// num_edges >= num_nodes - 1, which holds for all paper networks), the
/// remaining edges are placed uniformly subject to the in-degree cap; then
/// a greedy repair loop nudges cardinalities until the free-parameter count
/// is within `param_tolerance` of `target_params`.
///
/// Errors if the spec is infeasible (e.g. edge count too large for the cap,
/// or the parameter target unreachable within 20% with the given
/// cardinality range).
StatusOr<BayesianNetwork> GenerateNetwork(const NetworkSpec& spec, uint64_t seed);

/// Builds a Naive Bayes network: node 0 is the class variable with
/// `class_cardinality` values; nodes 1..num_features carry
/// `feature_cardinality` values and have the class as their only parent.
BayesianNetwork MakeNaiveBayes(int num_features, int class_cardinality,
                               int feature_cardinality, uint64_t seed,
                               double dirichlet_alpha = 0.5, double min_prob = 0.02);

/// NEW-ALARM transformation (Section VI-B): keeps the DAG, raises the
/// cardinality of `count` randomly chosen variables to `new_cardinality`,
/// and refills the CPDs whose shape changed.
BayesianNetwork InflateDomains(const BayesianNetwork& network, int count,
                               int new_cardinality, uint64_t seed,
                               double dirichlet_alpha = 0.5, double min_prob = 0.02);

/// Fig. 9 transformation: repeatedly removes the largest-id sink node until
/// `target_nodes` remain. Sinks have no children, so the CPDs of every
/// retained variable are preserved bit-for-bit. Requires
/// 1 <= target_nodes <= current size.
BayesianNetwork RemoveSinksToSize(const BayesianNetwork& network, int target_nodes);

}  // namespace dsgm

#endif  // DSGM_BAYES_GENERATOR_H_
