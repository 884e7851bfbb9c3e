#include "tree/cart.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace verihvac::tree {

DecisionTreeClassifier::DecisionTreeClassifier(TreeConfig config) : config_(config) {}

struct DecisionTreeClassifier::BuildContext {
  const std::vector<std::vector<double>>* x;
  const std::vector<int>* y;
  std::size_t num_classes;
  // Scratch class-count buffers reused across nodes.
  std::vector<double> left_counts;
  std::vector<double> right_counts;
  std::vector<double> total_counts;
};

namespace {

/// Gini impurity from class counts (total = sum of counts).
double gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

int majority_label(const std::vector<double>& counts) {
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace

void DecisionTreeClassifier::fit(const std::vector<std::vector<double>>& x,
                                 const std::vector<int>& y, std::size_t num_classes) {
  if (x.empty() || x.size() != y.size()) {
    throw std::invalid_argument("DecisionTreeClassifier::fit: bad inputs");
  }
  for (int label : y) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes) {
      throw std::invalid_argument("DecisionTreeClassifier::fit: label out of range");
    }
  }
  nodes_.clear();
  num_features_ = x.front().size();
  num_classes_ = num_classes;

  BuildContext ctx;
  ctx.x = &x;
  ctx.y = &y;
  ctx.num_classes = num_classes;
  ctx.left_counts.resize(num_classes);
  ctx.right_counts.resize(num_classes);
  ctx.total_counts.resize(num_classes);

  std::vector<std::size_t> indices(x.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  build_node(ctx, indices, 0, -1);
}

int DecisionTreeClassifier::build_node(BuildContext& ctx, std::vector<std::size_t>& indices,
                                       std::size_t depth, int parent) {
  const auto& x = *ctx.x;
  const auto& y = *ctx.y;

  std::fill(ctx.total_counts.begin(), ctx.total_counts.end(), 0.0);
  for (std::size_t idx : indices) ctx.total_counts[static_cast<std::size_t>(y[idx])] += 1.0;
  const double total = static_cast<double>(indices.size());
  const double node_impurity = gini(ctx.total_counts, total);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].samples = indices.size();
  nodes_[node_index].impurity = node_impurity;
  nodes_[node_index].parent = parent;

  auto make_leaf = [&]() {
    nodes_[node_index].label = majority_label(ctx.total_counts);
    return node_index;
  };

  // Stopping rules: pure node, too few samples, or depth cap.
  if (node_impurity <= 0.0 || indices.size() < config_.min_samples_split ||
      (config_.max_depth > 0 && depth >= config_.max_depth)) {
    return make_leaf();
  }

  // Exact greedy split search over every feature. Like sklearn, a split is
  // acceptable when its impurity decrease is >= min_impurity_decrease —
  // including exactly-zero-gain splits (XOR-style data has no single split
  // with positive Gini gain, yet recursing through a zero-gain split still
  // separates the classes two levels down).
  double best_gain = -1.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::size_t> sorted = indices;
  for (std::size_t feature = 0; feature < num_features_; ++feature) {
    std::sort(sorted.begin(), sorted.end(), [&x, feature](std::size_t a, std::size_t b) {
      return x[a][feature] < x[b][feature];
    });
    std::fill(ctx.left_counts.begin(), ctx.left_counts.end(), 0.0);
    ctx.right_counts = ctx.total_counts;

    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const auto label = static_cast<std::size_t>(y[sorted[i]]);
      ctx.left_counts[label] += 1.0;
      ctx.right_counts[label] -= 1.0;

      const double left_value = x[sorted[i]][feature];
      const double right_value = x[sorted[i + 1]][feature];
      if (left_value >= right_value) continue;  // no boundary between equals

      const double n_left = static_cast<double>(i + 1);
      const double n_right = total - n_left;
      if (n_left < static_cast<double>(config_.min_samples_leaf) ||
          n_right < static_cast<double>(config_.min_samples_leaf)) {
        continue;
      }
      const double weighted =
          (n_left * gini(ctx.left_counts, n_left) + n_right * gini(ctx.right_counts, n_right)) /
          total;
      const double gain = node_impurity - weighted;
      if (gain >= config_.min_impurity_decrease - 1e-12 && gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(feature);
        best_threshold = 0.5 * (left_value + right_value);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition and recurse.
  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
  left_idx.reserve(indices.size());
  right_idx.reserve(indices.size());
  for (std::size_t idx : indices) {
    if (x[idx][static_cast<std::size_t>(best_feature)] <= best_threshold) {
      left_idx.push_back(idx);
    } else {
      right_idx.push_back(idx);
    }
  }
  assert(!left_idx.empty() && !right_idx.empty());

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  // Free the parent's index list before recursing to bound peak memory.
  indices.clear();
  indices.shrink_to_fit();

  const int left_child = build_node(ctx, left_idx, depth + 1, node_index);
  nodes_[node_index].left = left_child;
  const int right_child = build_node(ctx, right_idx, depth + 1, node_index);
  nodes_[node_index].right = right_child;
  return node_index;
}

int DecisionTreeClassifier::decision_leaf(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("tree used before fit");
  if (x.size() != num_features_) throw std::invalid_argument("predict: wrong input dims");
  int current = 0;
  while (!nodes_[static_cast<std::size_t>(current)].is_leaf()) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(current)];
    current = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return current;
}

int DecisionTreeClassifier::predict(std::span<const double> x) const {
  return nodes_[static_cast<std::size_t>(decision_leaf(x))].label;
}

std::size_t DecisionTreeClassifier::leaf_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    if (n.is_leaf()) ++count;
  }
  return count;
}

std::size_t DecisionTreeClassifier::depth() const {
  // Depth of a node = #edges from the root; compute by walking parents.
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_leaf()) continue;
    std::size_t d = 0;
    int cursor = nodes_[i].parent;
    while (cursor >= 0) {
      ++d;
      cursor = nodes_[static_cast<std::size_t>(cursor)].parent;
    }
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

std::vector<int> DecisionTreeClassifier::leaves() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<PathStep> DecisionTreeClassifier::path_to(int leaf) const {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(leaf)].is_leaf()) {
    throw std::invalid_argument("path_to: not a leaf");
  }
  std::vector<PathStep> reversed;
  int child = leaf;
  int parent = nodes_[static_cast<std::size_t>(leaf)].parent;
  while (parent >= 0) {
    const TreeNode& p = nodes_[static_cast<std::size_t>(parent)];
    reversed.push_back(PathStep{parent, p.left == child});
    child = parent;
    parent = p.parent;
  }
  return {reversed.rbegin(), reversed.rend()};
}

Box DecisionTreeClassifier::leaf_box(int leaf) const {
  Box box(num_features_);
  for (const PathStep& step : path_to(leaf)) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(step.node)];
    const auto dim = static_cast<std::size_t>(n.feature);
    if (step.went_left) {
      box.clip(dim, Interval::at_most(n.threshold));
    } else {
      box.clip(dim, Interval::greater(n.threshold));
    }
  }
  return box;
}

void DecisionTreeClassifier::set_leaf_label(int leaf, int label) {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(leaf)].is_leaf()) {
    throw std::invalid_argument("set_leaf_label: not a leaf");
  }
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
    throw std::invalid_argument("set_leaf_label: label out of range");
  }
  nodes_[static_cast<std::size_t>(leaf)].label = label;
}

std::pair<int, int> DecisionTreeClassifier::split_leaf(int leaf, int feature,
                                                       double threshold) {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(leaf)].is_leaf()) {
    throw std::invalid_argument("split_leaf: not a leaf");
  }
  if (feature < 0 || static_cast<std::size_t>(feature) >= num_features_) {
    throw std::invalid_argument("split_leaf: feature out of range");
  }
  const TreeNode original = nodes_[static_cast<std::size_t>(leaf)];

  TreeNode child;
  child.label = original.label;
  child.samples = original.samples;
  child.impurity = original.impurity;
  child.parent = leaf;

  const int left = static_cast<int>(nodes_.size());
  nodes_.push_back(child);
  const int right = static_cast<int>(nodes_.size());
  nodes_.push_back(child);

  TreeNode& promoted = nodes_[static_cast<std::size_t>(leaf)];
  promoted.feature = feature;
  promoted.threshold = threshold;
  promoted.left = left;
  promoted.right = right;
  promoted.label = -1;
  return {left, right};
}

DecisionTreeClassifier DecisionTreeClassifier::from_nodes(std::vector<TreeNode> nodes,
                                                          std::size_t num_features,
                                                          std::size_t num_classes) {
  if (nodes.empty() || num_features == 0 || num_classes == 0) {
    throw std::invalid_argument("from_nodes: empty tree or zero dims");
  }
  const auto size = static_cast<int>(nodes.size());
  for (int i = 0; i < size; ++i) {
    const TreeNode& n = nodes[static_cast<std::size_t>(i)];
    if (n.is_leaf()) {
      if (n.label < 0 || static_cast<std::size_t>(n.label) >= num_classes) {
        throw std::invalid_argument("from_nodes: leaf label out of range");
      }
    } else {
      if (n.feature >= static_cast<int>(num_features)) {
        throw std::invalid_argument("from_nodes: feature index out of range");
      }
      if (n.left < 0 || n.left >= size || n.right < 0 || n.right >= size) {
        throw std::invalid_argument("from_nodes: child index out of range");
      }
      if (nodes[static_cast<std::size_t>(n.left)].parent != i ||
          nodes[static_cast<std::size_t>(n.right)].parent != i) {
        throw std::invalid_argument("from_nodes: inconsistent parent links");
      }
    }
  }
  DecisionTreeClassifier tree;
  tree.nodes_ = std::move(nodes);
  tree.num_features_ = num_features;
  tree.num_classes_ = num_classes;
  return tree;
}

double DecisionTreeClassifier::accuracy(const std::vector<std::vector<double>>& x,
                                        const std::vector<int>& y) const {
  assert(x.size() == y.size() && !x.empty());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (predict(x[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.size());
}

}  // namespace verihvac::tree
