// Canonical counter-id layout shared by every component that flattens a
// Bayesian network's CPD cells into one dense id space: joint counters
// A_i(x_i, x^par) first (grouped by variable, row-major over parent rows),
// then parent counters A_i(x^par). MleTracker, the cluster site nodes, the
// coordinator's epsilon vector, and the public ModelView all index counters
// through this layout, so an id means the same cell everywhere.

#ifndef DSGM_CORE_COUNTER_LAYOUT_H_
#define DSGM_CORE_COUNTER_LAYOUT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bayes/network.h"
#include "common/check.h"

namespace dsgm {

struct CounterLayout {
  explicit CounterLayout(const BayesianNetwork& network);

  /// Where one variable's counters live.
  struct VarRecord {
    int64_t joint_base = 0;   // first joint counter id
    int64_t parent_base = 0;  // first parent counter id
    int32_t card = 0;         // domain size J_i
    /// The variable's parents are parents[parents_begin, parents_end).
    int32_t parents_begin = 0;
    int32_t parents_end = 0;
  };
  /// One parent of a variable and its stride in the variable's parent-row
  /// index: row = Σ values[variable] · stride over the parents. The last
  /// parent has stride 1 and each earlier one the product of the later
  /// parents' domain sizes, the row-major order of the CPD table.
  struct ParentTerm {
    int32_t variable = 0;
    int64_t stride = 0;
  };

  int num_vars = 0;
  std::vector<VarRecord> vars;
  std::vector<ParentTerm> parents;
  int64_t total_joint = 0;
  int64_t total_parent = 0;

  int64_t total_counters() const { return total_joint + total_parent; }
  int card(int variable) const { return vars[static_cast<size_t>(variable)].card; }

  int64_t JointId(int variable, int64_t parent_row, int value) const {
    const VarRecord& var = vars[static_cast<size_t>(variable)];
    return var.joint_base + parent_row * var.card + value;
  }
  int64_t ParentId(int variable, int64_t parent_row) const {
    return vars[static_cast<size_t>(variable)].parent_base + parent_row;
  }

  /// Row index of `variable`'s parent assignment, reading the value of
  /// parent variable u from `value_of(u)`.
  template <typename ValueFn>
  int64_t ParentRow(int variable, ValueFn&& value_of) const {
    const VarRecord& var = vars[static_cast<size_t>(variable)];
    return RowOver(parents.data() + var.parents_begin,
                   parents.data() + var.parents_end, value_of);
  }
  /// Row index of `variable`'s parent assignment under a full instance,
  /// given as a flat values array (one value per variable).
  int64_t ParentRowOf(int variable, const int32_t* values) const {
    return ParentRow(variable, [values](int32_t u) { return values[u]; });
  }
  int64_t ParentRowOf(int variable, const Instance& instance) const {
    return ParentRowOf(variable, instance.data());
  }

  /// Writes the 2 · num_vars counter ids one full instance increments, in
  /// increment order: variable i's joint id, then its parent id.
  void EventIds(const int32_t* values, int64_t* ids) const {
    // The variables' parent ranges are consecutive: one walk covers them.
    const ParentTerm* term = parents.data();
    for (int i = 0; i < num_vars; ++i) {
      const VarRecord& var = vars[static_cast<size_t>(i)];
      DSGM_DCHECK(values[i] >= 0 && values[i] < var.card);
      const ParentTerm* end = parents.data() + var.parents_end;
      const int64_t row = RowOver(term, end, [values](int32_t u) { return values[u]; });
      term = end;
      ids[0] = var.joint_base + row * var.card + values[i];
      ids[1] = var.parent_base + row;
      ids += 2;
    }
  }

 private:
  /// Σ value_of(u) · stride over the parent terms [term, end).
  template <typename ValueFn>
  static int64_t RowOver(const ParentTerm* term, const ParentTerm* end,
                         ValueFn&& value_of) {
    int64_t row = 0;
    for (; term != end; ++term) {
      row += static_cast<int64_t>(value_of(term->variable)) * term->stride;
    }
    return row;
  }
};

/// Probability of an ancestrally-closed partial assignment under the CPD
/// supplied by `cpd(variable, value, parent_row)` — the chain rule factors
/// over the member variables (Algorithm 3). `assignment.nodes` must be
/// sorted ascending and contain every parent of every member (checked in
/// debug builds). Shared by MleTracker and the public ModelView so the
/// query semantics cannot drift apart.
template <typename CpdFn>
double ClosedAssignmentProbability(const CounterLayout& layout,
                                   const PartialAssignment& assignment,
                                   CpdFn&& cpd) {
  DSGM_DCHECK(assignment.nodes.size() == assignment.values.size());
  DSGM_DCHECK(std::is_sorted(assignment.nodes.begin(), assignment.nodes.end()));
  double prob = 1.0;
  for (size_t j = 0; j < assignment.nodes.size(); ++j) {
    const int i = assignment.nodes[j];
    // Parent row from the values present in the subset (ancestral closure
    // guarantees every parent is present).
    const int64_t row = layout.ParentRow(i, [&assignment](int32_t parent) {
      const auto it = std::lower_bound(assignment.nodes.begin(),
                                       assignment.nodes.end(), parent);
      DSGM_DCHECK(it != assignment.nodes.end() && *it == parent)
          << "assignment is not ancestrally closed";
      return assignment.values[static_cast<size_t>(it - assignment.nodes.begin())];
    });
    prob *= cpd(i, assignment.values[j], row);
  }
  return prob;
}

}  // namespace dsgm

#endif  // DSGM_CORE_COUNTER_LAYOUT_H_
