#include "bayes/sampler.h"

#include <algorithm>

#include "common/check.h"

namespace dsgm {

ForwardSampler::ForwardSampler(const BayesianNetwork& network, uint64_t seed)
    : network_(network), rng_(seed) {}

void ForwardSampler::Sample(Instance* instance) {
  const int n = network_.num_variables();
  instance->resize(static_cast<size_t>(n));
  for (int i : network_.topological_order()) {
    const int64_t row = network_.ParentIndexOf(i, *instance);
    (*instance)[static_cast<size_t>(i)] = network_.cpd(i).Sample(row, rng_);
  }
}

std::vector<Instance> ForwardSampler::SampleMany(int64_t count) {
  std::vector<Instance> result(static_cast<size_t>(count));
  for (auto& instance : result) Sample(&instance);
  return result;
}

std::vector<TestEvent> GenerateTestEvents(const BayesianNetwork& network,
                                          const TestEventOptions& options,
                                          Rng& rng) {
  DSGM_CHECK_GT(options.count, 0);
  const int n = network.num_variables();

  // Precompute which variables have a small enough ancestral closure to act
  // as seeds; large networks have deep nodes whose closures would span
  // hundreds of variables.
  std::vector<std::vector<int>> closures(static_cast<size_t>(n));
  std::vector<int> eligible;
  for (int i = 0; i < n; ++i) {
    std::vector<int> closure = network.dag().AncestralClosure({i});
    if (static_cast<int>(closure.size()) <= options.max_subset) {
      closures[static_cast<size_t>(i)] = std::move(closure);
      eligible.push_back(i);
    }
  }
  DSGM_CHECK(!eligible.empty())
      << "no variable has an ancestral closure within max_subset ="
      << options.max_subset;

  ForwardSampler sampler(network, rng.Next());
  std::vector<TestEvent> events;
  events.reserve(static_cast<size_t>(options.count));
  Instance instance;
  double floor = options.min_prob;
  int tries_at_floor = 0;
  while (static_cast<int>(events.size()) < options.count) {
    const int seed_var =
        eligible[rng.NextBounded(static_cast<uint64_t>(eligible.size()))];
    const std::vector<int>& closure = closures[static_cast<size_t>(seed_var)];
    sampler.Sample(&instance);
    TestEvent event;
    event.assignment.nodes = closure;
    event.assignment.values.reserve(closure.size());
    for (int node : closure) {
      event.assignment.values.push_back(instance[static_cast<size_t>(node)]);
    }
    event.truth_prob = network.ClosedSubsetProbability(event.assignment);
    if (event.truth_prob >= floor) {
      events.push_back(std::move(event));
      tries_at_floor = 0;
      continue;
    }
    if (++tries_at_floor >= options.max_tries) {
      // The requested floor is infeasible for this network; relax rather
      // than loop forever (README "Experiment notes").
      floor /= 10.0;
      tries_at_floor = 0;
    }
  }
  return events;
}

}  // namespace dsgm
