#include "core/mle_tracker.h"

#include <algorithm>

#include "common/check.h"
#include "monitor/approx_counter.h"
#include "monitor/deterministic_counter.h"
#include "monitor/exact_counter.h"

namespace dsgm {

MleTracker::MleTracker(const BayesianNetwork& network, const TrackerConfig& config)
    : network_(&network), config_(config), layout_(network) {
  DSGM_CHECK(config_.Validate().ok()) << config_.Validate();

  // --- Counter families (exact counters need no replicas).
  if (config_.strategy == TrackingStrategy::kExactMle) {
    replicas_.push_back(std::make_unique<ExactCounterFamily>(
        layout_.total_counters(), config_.num_sites, &comm_));
  } else {
    const std::vector<float> epsilons = LayoutEpsilons(network, config_);
    if (config_.counter_type == CounterType::kDeterministic) {
      for (int r = 0; r < config_.replicas; ++r) {
        replicas_.push_back(std::make_unique<DeterministicCounterFamily>(
            epsilons, config_.num_sites, &comm_));
      }
    } else {
      ApproxCounterOptions options;
      options.num_sites = config_.num_sites;
      options.probability_constant = config_.probability_constant;
      uint64_t seed_state = config_.seed;
      for (int r = 0; r < config_.replicas; ++r) {
        options.seed = SplitMix64(seed_state);
        replicas_.push_back(
            std::make_unique<ApproxCounterFamily>(epsilons, options, &comm_));
      }
    }
  }
}

void MleTracker::Observe(const Instance& instance, int site) {
  DSGM_DCHECK(static_cast<int>(instance.size()) == network_->num_variables());
  DSGM_DCHECK(site >= 0 && site < config_.num_sites);
  const int n = network_->num_variables();
  bool any_sent = false;
  for (int i = 0; i < n; ++i) {
    const int64_t row = layout_.ParentRowOf(i, instance);
    const int value = instance[static_cast<size_t>(i)];
    DSGM_DCHECK(value >= 0 && value < layout_.cards[static_cast<size_t>(i)]);
    const int64_t joint_id = layout_.JointId(i, row, value);
    const int64_t parent_id = layout_.ParentId(i, row);
    for (auto& family : replicas_) {
      any_sent |= family->Increment(joint_id, site);
      any_sent |= family->Increment(parent_id, site);
    }
  }
  if (any_sent) ++comm_.wire_messages;
  ++events_observed_;
}

double MleTracker::MedianEstimate(int64_t counter) const {
  if (replicas_.size() == 1) return replicas_[0]->Estimate(counter);
  std::vector<double> estimates;
  estimates.reserve(replicas_.size());
  for (const auto& family : replicas_) estimates.push_back(family->Estimate(counter));
  std::nth_element(estimates.begin(), estimates.begin() + estimates.size() / 2,
                   estimates.end());
  return estimates[estimates.size() / 2];
}

int64_t MleTracker::JointCounterId(int variable, int value,
                                   int64_t parent_row) const {
  DSGM_DCHECK(variable >= 0 && variable < network_->num_variables());
  DSGM_DCHECK(value >= 0 && value < layout_.cards[static_cast<size_t>(variable)]);
  DSGM_DCHECK(parent_row >= 0 &&
              parent_row < network_->parent_cardinality(variable));
  return layout_.JointId(variable, parent_row, value);
}

int64_t MleTracker::ParentCounterId(int variable, int64_t parent_row) const {
  DSGM_DCHECK(variable >= 0 && variable < network_->num_variables());
  DSGM_DCHECK(parent_row >= 0 &&
              parent_row < network_->parent_cardinality(variable));
  return layout_.ParentId(variable, parent_row);
}

double MleTracker::JointCounterEstimate(int variable, int value,
                                        int64_t parent_row) const {
  return MedianEstimate(JointCounterId(variable, value, parent_row));
}

uint64_t MleTracker::JointCounterExact(int variable, int value,
                                       int64_t parent_row) const {
  return replicas_[0]->ExactTotal(JointCounterId(variable, value, parent_row));
}

double MleTracker::ParentCounterEstimate(int variable, int64_t parent_row) const {
  return MedianEstimate(ParentCounterId(variable, parent_row));
}

uint64_t MleTracker::ParentCounterExact(int variable, int64_t parent_row) const {
  return replicas_[0]->ExactTotal(ParentCounterId(variable, parent_row));
}

double MleTracker::CpdEstimate(int variable, int value, int64_t parent_row) const {
  const double joint = MedianEstimate(JointCounterId(variable, value, parent_row));
  const double parent = MedianEstimate(ParentCounterId(variable, parent_row));
  const double cardinality = layout_.cards[static_cast<size_t>(variable)];
  if (config_.laplace_alpha > 0.0) {
    return (joint + config_.laplace_alpha) /
           (parent + config_.laplace_alpha * cardinality);
  }
  if (parent <= 0.0) {
    // No observed mass for this parent assignment: fall back to uniform
    // (the MLE is undefined here; Section VI sidesteps it by querying only
    // events of probability >= 0.01).
    return 1.0 / cardinality;
  }
  return joint / parent;
}

double MleTracker::JointProbability(const PartialAssignment& assignment) const {
  return ClosedAssignmentProbability(
      layout_, assignment, [this](int variable, int value, int64_t row) {
        return CpdEstimate(variable, value, row);
      });
}

double MleTracker::JointProbability(const Instance& instance) const {
  DSGM_CHECK_EQ(static_cast<int>(instance.size()), network_->num_variables());
  double prob = 1.0;
  for (int i = 0; i < network_->num_variables(); ++i) {
    prob *= CpdEstimate(i, instance[static_cast<size_t>(i)],
                        layout_.ParentRowOf(i, instance));
  }
  return prob;
}

uint64_t MleTracker::MemoryBytes() const {
  uint64_t total = 0;
  for (const auto& family : replicas_) total += family->MemoryBytes();
  return total;
}

}  // namespace dsgm
