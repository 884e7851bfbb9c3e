#include "tree/tree_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"

namespace verihvac::tree {
namespace {

DecisionTreeClassifier round_trip(const DecisionTreeClassifier& tree) {
  std::stringstream buffer;
  write_tree(tree, buffer);
  return read_tree(buffer);
}

DecisionTreeClassifier sample_tree(std::uint64_t seed = 3, std::size_t n = 200) {
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0)});
    y.push_back(static_cast<int>(rng.index(4)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 4);
  return tree;
}

TEST(TreeIoTest, TextExportMentionsNamesAndClasses) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0, 0.0}, {9.0, 0.0}}, {0, 1}, 2);
  const std::string text = to_text(tree, {"zone_temp", "outdoor"}, {"heat", "cool"});
  EXPECT_NE(text.find("zone_temp"), std::string::npos);
  EXPECT_NE(text.find("heat"), std::string::npos);
  EXPECT_NE(text.find("if "), std::string::npos);
  EXPECT_NE(text.find("else"), std::string::npos);
}

TEST(TreeIoTest, TextExportFallsBackToIndices) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 2);
  const std::string text = to_text(tree);
  EXPECT_NE(text.find("x[0]"), std::string::npos);
  EXPECT_NE(text.find("class"), std::string::npos);
}

TEST(TreeIoTest, DotExportIsWellFormed) {
  const DecisionTreeClassifier tree = sample_tree();
  const std::string dot = to_dot(tree, {"a", "b"}, {});
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  // Every node appears.
  EXPECT_NE(dot.find("n0"), std::string::npos);
}

TEST(TreeIoTest, UnfittedExportThrows) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(to_text(tree), std::logic_error);
  EXPECT_THROW(to_dot(tree), std::logic_error);
  std::stringstream buffer;
  EXPECT_THROW(write_tree(tree, buffer), std::logic_error);
}

TEST(TreeIoTest, SaveLoadRoundTripPreservesPredictions) {
  const DecisionTreeClassifier original = sample_tree(5, 300);
  const DecisionTreeClassifier loaded = round_trip(original);
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.leaf_count(), original.leaf_count());
  EXPECT_EQ(loaded.num_features(), original.num_features());
  EXPECT_EQ(loaded.num_classes(), original.num_classes());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> q = {rng.uniform(-0.5, 1.5), rng.uniform(-4.0, 4.0)};
    EXPECT_EQ(loaded.predict(q), original.predict(q));
  }
}

TEST(TreeIoTest, RoundTripPreservesBoxes) {
  const DecisionTreeClassifier original = sample_tree(9, 150);
  const DecisionTreeClassifier loaded = round_trip(original);
  const auto leaves = original.leaves();
  const auto loaded_leaves = loaded.leaves();
  ASSERT_EQ(leaves.size(), loaded_leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const Box a = original.leaf_box(leaves[i]);
    const Box b = loaded.leaf_box(loaded_leaves[i]);
    for (std::size_t d = 0; d < a.size(); ++d) {
      EXPECT_DOUBLE_EQ(a[d].lo, b[d].lo);
      EXPECT_DOUBLE_EQ(a[d].hi, b[d].hi);
    }
  }
}

TEST(TreeIoTest, LoadRejectsCorruptHeader) {
  std::stringstream corrupt("not-a-tree v9\n");
  EXPECT_THROW(read_tree(corrupt), std::runtime_error);
}

TEST(TreeIoTest, LoadRejectsTruncatedFile) {
  const DecisionTreeClassifier tree = sample_tree(11, 100);
  std::stringstream full;
  write_tree(tree, full);
  // Truncate to half.
  const std::string text = full.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_THROW(read_tree(truncated), std::runtime_error);
}

}  // namespace
}  // namespace verihvac::tree
