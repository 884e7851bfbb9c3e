// merge_redundant_leaves: function-preserving tree simplification.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tree/cart.hpp"
#include "tree/prune.hpp"

namespace verihvac::tree {
namespace {

DecisionTreeClassifier noisy_tree(std::uint64_t seed, std::size_t n) {
  // Two-class problem with label noise: the unbounded-depth CART
  // memorizes the noise, guaranteeing identical-label sibling leaves.
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.push_back({a, b});
    const int label = a > 0.5 ? 1 : 0;
    y.push_back(rng.bernoulli(0.15) ? 1 - label : label);
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 2);
  return tree;
}

TEST(PruneTest, PredictionsUnchangedEverywhere) {
  DecisionTreeClassifier tree = noisy_tree(11, 400);
  const DecisionTreeClassifier original = tree;
  merge_redundant_leaves(tree);

  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::vector<double> x = {rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)};
    ASSERT_EQ(tree.predict(x), original.predict(x));
  }
}

TEST(PruneTest, ReportIsConsistent) {
  DecisionTreeClassifier tree = noisy_tree(12, 400);
  const std::size_t before = tree.node_count();
  const PruneReport report = merge_redundant_leaves(tree);
  EXPECT_EQ(report.nodes_before, before);
  EXPECT_EQ(report.nodes_after, tree.node_count());
  // Each merge removes exactly two nodes from the compacted tree.
  EXPECT_EQ(report.nodes_after, report.nodes_before - 2 * report.merges);
}

TEST(PruneTest, FixedPointIsIdempotent) {
  DecisionTreeClassifier tree = noisy_tree(13, 300);
  merge_redundant_leaves(tree);
  const PruneReport second = merge_redundant_leaves(tree);
  EXPECT_EQ(second.merges, 0u);
  EXPECT_EQ(second.nodes_after, second.nodes_before);
}

TEST(PruneTest, CollapsesManuallyBuiltRedundantSplit) {
  // root: x0 <= 0.5 ? leaf(A) : leaf(A) — must collapse to one leaf.
  std::vector<TreeNode> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].samples = 10;
  nodes[1].label = 4;
  nodes[1].samples = 6;
  nodes[1].parent = 0;
  nodes[2].label = 4;
  nodes[2].samples = 4;
  nodes[2].parent = 0;
  auto tree = DecisionTreeClassifier::from_nodes(nodes, 1, 5);

  const PruneReport report = merge_redundant_leaves(tree);
  EXPECT_EQ(report.merges, 1u);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{0.1}), 4);
  EXPECT_EQ(tree.predict(std::vector<double>{0.9}), 4);
  // Sample counts aggregate through the merge.
  EXPECT_EQ(tree.node(0).samples, 10u);
}

TEST(PruneTest, CascadingMerges) {
  // A three-level chain that collapses completely once the bottom merges.
  //   n0(x0<=0.5)
  //   |-- left:  n1(x1<=0.5)
  //   |          |-- left:  leaf(7)
  //   |          `-- right: leaf(7)
  //   `-- right: leaf(7)
  std::vector<TreeNode> nodes(5);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].feature = 1;
  nodes[1].threshold = 0.5;
  nodes[1].left = 3;
  nodes[1].right = 4;
  nodes[1].parent = 0;
  nodes[2].label = 7;
  nodes[2].parent = 0;
  nodes[3].label = 7;
  nodes[3].parent = 1;
  nodes[4].label = 7;
  nodes[4].parent = 1;
  auto tree = DecisionTreeClassifier::from_nodes(nodes, 2, 8);

  const PruneReport report = merge_redundant_leaves(tree);
  EXPECT_EQ(report.merges, 2u);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{0.3, 0.9}), 7);
}

TEST(PruneTest, LeavesDistinctLabelsAlone) {
  std::vector<TreeNode> nodes(3);
  nodes[0].feature = 0;
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].label = 0;
  nodes[1].parent = 0;
  nodes[2].label = 1;
  nodes[2].parent = 0;
  auto tree = DecisionTreeClassifier::from_nodes(nodes, 1, 2);
  const PruneReport report = merge_redundant_leaves(tree);
  EXPECT_EQ(report.merges, 0u);
  EXPECT_EQ(tree.node_count(), 3u);
}

}  // namespace
}  // namespace verihvac::tree
