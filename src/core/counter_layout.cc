#include "core/counter_layout.h"

namespace dsgm {

CounterLayout::CounterLayout(const BayesianNetwork& network)
    : num_vars(network.num_variables()) {
  vars.resize(static_cast<size_t>(num_vars));
  parents.reserve(static_cast<size_t>(network.dag().num_edges()));
  for (int i = 0; i < num_vars; ++i) {
    VarRecord& var = vars[static_cast<size_t>(i)];
    var.card = network.cardinality(i);
    var.joint_base = total_joint;
    total_joint += network.parent_cardinality(i) * var.card;
    var.parents_begin = static_cast<int32_t>(parents.size());
    for (int parent : network.dag().parents(i)) {
      parents.push_back(ParentTerm{parent, 0});
    }
    var.parents_end = static_cast<int32_t>(parents.size());
    // Row-major strides, last parent fastest.
    int64_t stride = 1;
    for (int32_t j = var.parents_end; j-- > var.parents_begin;) {
      ParentTerm& term = parents[static_cast<size_t>(j)];
      term.stride = stride;
      stride *= network.cardinality(term.variable);
    }
  }
  for (int i = 0; i < num_vars; ++i) {
    vars[static_cast<size_t>(i)].parent_base = total_joint + total_parent;
    total_parent += network.parent_cardinality(i);
  }
}

}  // namespace dsgm
