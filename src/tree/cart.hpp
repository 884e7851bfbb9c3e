// CART classification tree (scikit-learn substitute).
//
// Exact greedy CART with Gini impurity, unbounded depth by default and the
// sklearn default stopping rules (min_samples_split = 2, pure-node stop) —
// matching the paper's §4.1 settings. Beyond fit/predict, the class exposes
// everything Algorithm 1 of the paper needs and sklearn hides:
//  * enumeration of leaves,
//  * the unique root-to-leaf decision path of every leaf,
//  * the axis-aligned input "box" implied by that path,
//  * in-place leaf relabeling (the verification *correction* step).
//
// Split semantics: left branch takes x[feature] <= threshold, right branch
// takes x[feature] > threshold; thresholds are midpoints between adjacent
// distinct feature values, as in sklearn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.hpp"

namespace verihvac::tree {

struct TreeConfig {
  /// 0 = unbounded (paper setting).
  std::size_t max_depth = 0;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Minimum Gini decrease for a split to be accepted.
  double min_impurity_decrease = 0.0;
};

struct TreeNode {
  // Internal-node fields.
  int feature = -1;        ///< split feature index (-1 for leaves)
  double threshold = 0.0;  ///< split threshold (x <= t goes left)
  int left = -1;
  int right = -1;
  // Leaf fields.
  int label = -1;          ///< class decision (leaves only)
  // Diagnostics.
  std::size_t samples = 0;
  double impurity = 0.0;
  int parent = -1;

  bool is_leaf() const { return feature < 0; }
};

/// One edge of a decision path: node `node` tested feature/threshold and the
/// path followed the left (<=) or right (>) branch.
struct PathStep {
  int node = -1;
  bool went_left = true;
};

class DecisionTreeClassifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig config = {});

  /// Fits on rows `x` with integer labels `y` in [0, num_classes).
  void fit(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
           std::size_t num_classes);

  bool fitted() const { return !nodes_.empty(); }
  std::size_t num_features() const { return num_features_; }
  std::size_t num_classes() const { return num_classes_; }

  int predict(std::span<const double> x) const;
  /// Index of the leaf node that handles `x`.
  int decision_leaf(std::span<const double> x) const;

  // --- structure introspection (Algorithm 1 surface) ---
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;
  const TreeNode& node(std::size_t i) const { return nodes_.at(i); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  /// Indices of all leaf nodes.
  std::vector<int> leaves() const;
  /// The unique path from the root to `leaf` (excluding the leaf itself).
  std::vector<PathStep> path_to(int leaf) const;
  /// The input box (intersection of split half-spaces) handled by `leaf`.
  Box leaf_box(int leaf) const;

  /// Verification correction: overwrite the class decision of a leaf.
  void set_leaf_label(int leaf, int label);

  /// Function-preserving refinement: turns `leaf` into a decision node
  /// testing x[feature] <= threshold whose two fresh children are leaves
  /// carrying the original label. Returns {left, right} child indices.
  /// Used by the verifier to split leaves whose box straddles a comfort
  /// boundary, so correction can edit only the out-of-comfort side.
  std::pair<int, int> split_leaf(int leaf, int feature, double threshold);

  /// Training accuracy helper (sanity checks / tests).
  double accuracy(const std::vector<std::vector<double>>& x, const std::vector<int>& y) const;

  /// Reconstructs a tree from explicit nodes (deserialization). Performs a
  /// structural validation pass (indices in range, every non-leaf has two
  /// children, parent links consistent) and throws on corruption.
  static DecisionTreeClassifier from_nodes(std::vector<TreeNode> nodes,
                                           std::size_t num_features,
                                           std::size_t num_classes);

 private:
  struct BuildContext;
  int build_node(BuildContext& ctx, std::vector<std::size_t>& indices, std::size_t depth,
                 int parent);

  TreeConfig config_;
  std::vector<TreeNode> nodes_;
  std::size_t num_features_ = 0;
  std::size_t num_classes_ = 0;
};

}  // namespace verihvac::tree
