#include "dsgm/model_view.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/classifier.h"

namespace dsgm {

ModelView::ModelView(const BayesianNetwork& network,
                     std::shared_ptr<const CounterLayout> layout,
                     std::vector<double> estimates, int64_t events_observed,
                     CommStats comm, double laplace_alpha)
    : network_(&network),
      layout_(std::move(layout)),
      estimates_(std::move(estimates)),
      events_observed_(events_observed),
      comm_(comm),
      laplace_alpha_(laplace_alpha) {
  DSGM_CHECK_EQ(static_cast<int64_t>(estimates_.size()),
                layout_->total_counters());
}

double ModelView::CpdEstimate(int variable, int value, int64_t parent_row) const {
  DSGM_CHECK(!empty()) << "querying an empty ModelView";
  const double joint =
      estimates_[static_cast<size_t>(layout_->JointId(variable, parent_row, value))];
  const double parent =
      estimates_[static_cast<size_t>(layout_->ParentId(variable, parent_row))];
  const double cardinality = layout_->card(variable);
  if (laplace_alpha_ > 0.0) {
    return (joint + laplace_alpha_) / (parent + laplace_alpha_ * cardinality);
  }
  if (parent <= 0.0) {
    // No observed mass for this parent assignment: fall back to uniform
    // (the MLE is undefined here; the paper queries only events of
    // probability >= 0.01 for the same reason).
    return 1.0 / cardinality;
  }
  return joint / parent;
}

double ModelView::JointProbability(const Instance& instance) const {
  DSGM_CHECK(!empty()) << "querying an empty ModelView";
  DSGM_CHECK_EQ(static_cast<int>(instance.size()), layout_->num_vars);
  double prob = 1.0;
  for (int i = 0; i < layout_->num_vars; ++i) {
    prob *= CpdEstimate(i, instance[static_cast<size_t>(i)],
                        layout_->ParentRowOf(i, instance));
  }
  return prob;
}

double ModelView::JointProbability(const PartialAssignment& assignment) const {
  DSGM_CHECK(!empty()) << "querying an empty ModelView";
  return ClosedAssignmentProbability(
      *layout_, assignment, [this](int variable, int value, int64_t row) {
        return CpdEstimate(variable, value, row);
      });
}

int Predict(const ModelView& model, int target, const Instance& evidence) {
  DSGM_CHECK(!model.empty()) << "predicting from an empty ModelView";
  return PredictWithCpd(model.network(), target, evidence,
                        [&model](int variable, int value, int64_t row) {
                          return model.CpdEstimate(variable, value, row);
                        });
}

}  // namespace dsgm
