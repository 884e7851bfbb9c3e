#include "tree/cart.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace verihvac::tree {
namespace {

TEST(CartTest, FitRejectsBadInputs) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.fit({}, {}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {5}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {-1}, 2), std::invalid_argument);
}

TEST(CartTest, PredictBeforeFitThrows) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(CartTest, SingleClassYieldsSingleLeaf) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {2.0}, {3.0}}, {1, 1, 1}, 3);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  EXPECT_EQ(tree.predict(std::vector<double>{99.0}), 1);
}

TEST(CartTest, LearnsAxisAlignedSplit) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {0, 0, 1, 1}, 2);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{10.0}), 1);
  // Threshold is the midpoint between adjacent distinct values (2 and 8).
  EXPECT_DOUBLE_EQ(tree.node(0).threshold, 5.0);
}

TEST(CartTest, LearnsTwoDimensionalCheckerboardExactly) {
  // XOR-style pattern requires depth >= 2 and splits on both features.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (double a : {0.0, 1.0}) {
    for (double b : {0.0, 1.0}) {
      for (int rep = 0; rep < 3; ++rep) {
        x.push_back({a + rep * 0.01, b + rep * 0.01});
        y.push_back((a + b == 1.0) ? 1 : 0);
      }
    }
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 2);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(CartTest, PerfectTrainingAccuracyOnSeparableData) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.push_back({a, b});
    y.push_back(a > 0.5 ? (b > 0.3 ? 2 : 1) : 0);
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 3);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
}

TEST(CartTest, UnboundedDepthMemorizesNoisyLabels) {
  // With unbounded depth + min_samples_split=2 (the paper's settings), the
  // tree drives training error to zero even on noisy labels when inputs
  // are distinct.
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(5)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 5);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
}

TEST(CartTest, MaxDepthLimitsTree) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(2)));
  }
  TreeConfig cfg;
  cfg.max_depth = 3;
  DecisionTreeClassifier tree(cfg);
  tree.fit(x, y, 2);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(CartTest, MinSamplesLeafRespected) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(2)));
  }
  TreeConfig cfg;
  cfg.min_samples_leaf = 10;
  DecisionTreeClassifier tree(cfg);
  tree.fit(x, y, 2);
  for (int leaf : tree.leaves()) {
    EXPECT_GE(tree.node(static_cast<std::size_t>(leaf)).samples, 10u);
  }
}

TEST(CartTest, NodeCountIdentity) {
  // A binary tree always satisfies: nodes = 2 * leaves - 1.
  Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(4)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 4);
  EXPECT_EQ(tree.node_count(), 2 * tree.leaf_count() - 1);
}

TEST(CartTest, DecisionLeafIsConsistentWithPredict) {
  Rng rng(15);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(3)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 3);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> q = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const int leaf = tree.decision_leaf(q);
    EXPECT_TRUE(tree.node(static_cast<std::size_t>(leaf)).is_leaf());
    EXPECT_EQ(tree.predict(q), tree.node(static_cast<std::size_t>(leaf)).label);
  }
}

TEST(CartTest, LeafBoxContainsItsTrainingPoints) {
  Rng rng(17);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    x.push_back({rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0)});
    y.push_back(static_cast<int>(rng.index(3)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 3);
  // Every input lands in the leaf whose box contains it.
  for (const auto& point : x) {
    const int leaf = tree.decision_leaf(point);
    const Box box = tree.leaf_box(leaf);
    EXPECT_TRUE(box.contains(point));
  }
}

TEST(CartTest, LeafBoxesPartitionTheInputSpace) {
  // Any query point must be contained in exactly one leaf box.
  Rng rng(19);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(2)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 2);
  const auto leaves = tree.leaves();
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> q = {rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)};
    int containing = 0;
    for (int leaf : leaves) {
      if (tree.leaf_box(leaf).contains(q)) ++containing;
    }
    EXPECT_EQ(containing, 1) << "query (" << q[0] << ", " << q[1] << ")";
  }
}

TEST(CartTest, PathToLeafFollowsSplits) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {0, 0, 1, 1}, 2);
  const auto leaves = tree.leaves();
  ASSERT_EQ(leaves.size(), 2u);
  for (int leaf : leaves) {
    const auto path = tree.path_to(leaf);
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0].node, 0);
    // Left leaf got "went_left", right leaf the opposite.
    const Box box = tree.leaf_box(leaf);
    if (path[0].went_left) {
      EXPECT_DOUBLE_EQ(box[0].hi, 5.0);
    } else {
      EXPECT_DOUBLE_EQ(box[0].lo, 5.0);
    }
  }
}

TEST(CartTest, PathToNonLeafThrows) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 2);
  EXPECT_THROW(tree.path_to(0), std::invalid_argument);  // root is internal
  EXPECT_THROW(tree.path_to(99), std::invalid_argument);
}

TEST(CartTest, SetLeafLabelEditsDecision) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 3);
  const int leaf = tree.decision_leaf(std::vector<double>{0.0});
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 0);
  tree.set_leaf_label(leaf, 2);
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 2);
  EXPECT_THROW(tree.set_leaf_label(leaf, 7), std::invalid_argument);
  EXPECT_THROW(tree.set_leaf_label(0, 1), std::invalid_argument);  // internal node
}

TEST(CartTest, FromNodesValidates) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 2);
  std::vector<TreeNode> nodes(tree.nodes().begin(), tree.nodes().end());
  EXPECT_NO_THROW(DecisionTreeClassifier::from_nodes(nodes, 1, 2));
  nodes[0].left = 99;
  EXPECT_THROW(DecisionTreeClassifier::from_nodes(nodes, 1, 2), std::invalid_argument);
}

/// Parameterized agreement sweep: tree memorizes datasets of varying size.
class CartMemorizationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CartMemorizationTest, TrainAccuracyIsPerfect) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                 rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(6)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 6);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
  EXPECT_EQ(tree.node_count(), 2 * tree.leaf_count() - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CartMemorizationTest,
                         ::testing::Values(10, 50, 200, 800));

}  // namespace
}  // namespace verihvac::tree
