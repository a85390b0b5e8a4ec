// Tests for core/counter_layout.h: the stride-addressed counter ids agree
// with the row-major (Horner) flattening of every CPD table, on every
// repository network.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bayes/repository.h"
#include "common/rng.h"
#include "core/counter_layout.h"

namespace dsgm {
namespace {

/// Reference addressing: joint blocks of every variable first, then the
/// parent blocks, each variable's block row-major over its parent rows,
/// and a parent row by Horner's rule over the parents in DAG order.
class HornerReference {
 public:
  explicit HornerReference(const BayesianNetwork& net) : net_(net) {
    int64_t total_joint = 0;
    for (int v = 0; v < net.num_variables(); ++v) {
      joint_base_.push_back(total_joint);
      total_joint += net.parent_cardinality(v) * net.cardinality(v);
    }
    int64_t next = total_joint;
    for (int v = 0; v < net.num_variables(); ++v) {
      parent_base_.push_back(next);
      next += net.parent_cardinality(v);
    }
  }

  int64_t Row(int i, const Instance& x) const {
    int64_t row = 0;
    for (int parent : net_.dag().parents(i)) {
      row = row * net_.cardinality(parent) + x[static_cast<size_t>(parent)];
    }
    return row;
  }
  int64_t JointId(int i, const Instance& x) const {
    return joint_base_[static_cast<size_t>(i)] + Row(i, x) * net_.cardinality(i) +
           x[static_cast<size_t>(i)];
  }
  int64_t ParentId(int i, const Instance& x) const {
    return parent_base_[static_cast<size_t>(i)] + Row(i, x);
  }

 private:
  const BayesianNetwork& net_;
  std::vector<int64_t> joint_base_;
  std::vector<int64_t> parent_base_;
};

void ExpectStrideIdsMatchHorner(const std::string& name) {
  SCOPED_TRACE(name);
  const StatusOr<BayesianNetwork> net = NetworkByName(name);
  ASSERT_TRUE(net.ok()) << net.status();
  const CounterLayout layout(*net);
  const HornerReference reference(*net);
  const int n = net->num_variables();
  ASSERT_EQ(layout.num_vars, n);

  // The all-zero and all-maximum instances pin both corners of every
  // table; random ones cover the rows between.
  std::vector<Instance> instances(2, Instance(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    instances[1][static_cast<size_t>(i)] = net->cardinality(i) - 1;
  }
  Rng rng(41);
  for (int r = 0; r < 200; ++r) {
    Instance x(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<size_t>(i)] = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(net->cardinality(i))));
    }
    instances.push_back(x);
  }

  int roots = 0;
  size_t most_parents = 0;
  for (int i = 0; i < n; ++i) {
    const size_t num_parents = net->dag().parents(i).size();
    if (num_parents == 0) ++roots;
    most_parents = std::max(most_parents, num_parents);
  }
  EXPECT_GT(roots, 0);
  EXPECT_GT(most_parents, 1u);

  std::vector<int64_t> event_ids(2 * static_cast<size_t>(n));
  for (const Instance& x : instances) {
    layout.EventIds(x.data(), event_ids.data());
    for (int i = 0; i < n; ++i) {
      const int64_t joint = reference.JointId(i, x);
      const int64_t parent = reference.ParentId(i, x);
      const int64_t row = layout.ParentRowOf(i, x);
      ASSERT_EQ(row, reference.Row(i, x)) << "variable " << i;
      ASSERT_LT(row, net->parent_cardinality(i)) << "variable " << i;
      ASSERT_EQ(layout.JointId(i, row, x[static_cast<size_t>(i)]), joint)
          << "variable " << i;
      ASSERT_EQ(layout.ParentId(i, row), parent) << "variable " << i;
      ASSERT_EQ(event_ids[2 * static_cast<size_t>(i)], joint) << "variable " << i;
      ASSERT_EQ(event_ids[2 * static_cast<size_t>(i) + 1], parent)
          << "variable " << i;
    }
  }
  EXPECT_EQ(layout.total_joint, net->TotalJointCells());
  EXPECT_EQ(layout.total_parent, net->TotalParentCells());
}

TEST(CounterLayoutTest, StrideIdsMatchHornerOnEveryRepositoryNetwork) {
  for (const char* name :
       {"student", "alarm", "newalarm", "hepar", "link", "munin"}) {
    ExpectStrideIdsMatchHorner(name);
  }
}

}  // namespace
}  // namespace dsgm
