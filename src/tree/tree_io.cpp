#include "tree/tree_io.hpp"

#include <sstream>
#include <stdexcept>

namespace verihvac::tree {
namespace {

std::string feature_name(const std::vector<std::string>& names, int feature) {
  if (feature >= 0 && static_cast<std::size_t>(feature) < names.size()) {
    return names[static_cast<std::size_t>(feature)];
  }
  return "x[" + std::to_string(feature) + "]";
}

std::string class_name(const std::vector<std::string>& names, int label) {
  if (label >= 0 && static_cast<std::size_t>(label) < names.size()) {
    return names[static_cast<std::size_t>(label)];
  }
  return "class " + std::to_string(label);
}

void text_walk(const DecisionTreeClassifier& tree, int node_idx, std::size_t indent,
               const std::vector<std::string>& feature_names,
               const std::vector<std::string>& class_names, std::ostringstream& os) {
  const TreeNode& n = tree.node(static_cast<std::size_t>(node_idx));
  const std::string pad(indent * 2, ' ');
  if (n.is_leaf()) {
    os << pad << "-> " << class_name(class_names, n.label) << "  (n=" << n.samples << ")\n";
    return;
  }
  os << pad << "if " << feature_name(feature_names, n.feature) << " <= " << n.threshold
     << ":\n";
  text_walk(tree, n.left, indent + 1, feature_names, class_names, os);
  os << pad << "else:  # " << feature_name(feature_names, n.feature) << " > " << n.threshold
     << "\n";
  text_walk(tree, n.right, indent + 1, feature_names, class_names, os);
}

}  // namespace

std::string to_text(const DecisionTreeClassifier& tree,
                    const std::vector<std::string>& feature_names,
                    const std::vector<std::string>& class_names) {
  if (!tree.fitted()) throw std::logic_error("to_text: tree not fitted");
  std::ostringstream os;
  text_walk(tree, 0, 0, feature_names, class_names, os);
  return os.str();
}

std::string to_dot(const DecisionTreeClassifier& tree,
                   const std::vector<std::string>& feature_names,
                   const std::vector<std::string>& class_names) {
  if (!tree.fitted()) throw std::logic_error("to_dot: tree not fitted");
  std::ostringstream os;
  os << "digraph DecisionTree {\n  node [shape=box];\n";
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const TreeNode& n = tree.node(i);
    if (n.is_leaf()) {
      os << "  n" << i << " [label=\"" << class_name(class_names, n.label)
         << "\\nn=" << n.samples << "\", style=filled, fillcolor=lightgray];\n";
    } else {
      os << "  n" << i << " [label=\"" << feature_name(feature_names, n.feature)
         << " <= " << n.threshold << "\"];\n";
      os << "  n" << i << " -> n" << n.left << " [label=\"yes\"];\n";
      os << "  n" << i << " -> n" << n.right << " [label=\"no\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

void write_tree(const DecisionTreeClassifier& tree, std::ostream& out) {
  if (!tree.fitted()) throw std::logic_error("write_tree: tree not fitted");
  const auto saved_precision = out.precision(17);
  out << "verihvac-tree v1\n";
  out << tree.num_features() << ' ' << tree.num_classes() << ' ' << tree.node_count() << '\n';
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const TreeNode& n = tree.node(i);
    out << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right << ' '
        << n.label << ' ' << n.samples << ' ' << n.impurity << ' ' << n.parent << '\n';
  }
  out.precision(saved_precision);
}

TreeFields read_tree_fields(std::istream& in, const std::string& context) {
  std::string magic;
  std::string version;
  in >> magic >> version;
  if (magic != "verihvac-tree" || version != "v1") {
    throw std::runtime_error("read_tree: bad header in " + context);
  }
  TreeFields fields;
  std::size_t count = 0;
  in >> fields.num_features >> fields.num_classes >> count;
  for (std::size_t i = 0; in && i < count; ++i) {
    TreeNode n;
    in >> n.feature >> n.threshold >> n.left >> n.right >> n.label >> n.samples >>
        n.impurity >> n.parent;
    if (in) fields.nodes.push_back(n);
  }
  if (!in) throw std::runtime_error("read_tree: truncated input in " + context);
  return fields;
}

DecisionTreeClassifier read_tree(std::istream& in, const std::string& context) {
  TreeFields fields = read_tree_fields(in, context);
  return DecisionTreeClassifier::from_nodes(std::move(fields.nodes), fields.num_features,
                                            fields.num_classes);
}

}  // namespace verihvac::tree
