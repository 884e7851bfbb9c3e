// Decision-tree serialization and human-readable export.
//
// Three formats:
//  * to_text      — indented if/else pseudo-code, the "interpretable to
//                   human experts" artifact the paper emphasizes;
//  * to_dot       — Graphviz, for figures like Fig. 2's illustration;
//  * write/read   — a line-based exact round-trip tree section, embedded
//                   in the deployable policy bundle (core/policy_io), the
//                   one on-disk policy format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tree/cart.hpp"

namespace verihvac::tree {

/// Indented pseudo-code. `feature_names` may be empty (uses x[i]);
/// `class_names` may be empty (uses raw label numbers).
std::string to_text(const DecisionTreeClassifier& tree,
                    const std::vector<std::string>& feature_names = {},
                    const std::vector<std::string>& class_names = {});

/// Graphviz DOT digraph.
std::string to_dot(const DecisionTreeClassifier& tree,
                   const std::vector<std::string>& feature_names = {},
                   const std::vector<std::string>& class_names = {});

/// Exact round-trip serialization of a tree section (the policy-bundle
/// format embeds one inside a larger file). `context` names the source in
/// errors.
void write_tree(const DecisionTreeClassifier& tree, std::ostream& out);
DecisionTreeClassifier read_tree(std::istream& in, const std::string& context = "<stream>");

/// A tree section as parsed, before DecisionTreeClassifier::from_nodes
/// validates it. The node vector grows as nodes are read, so a stated
/// count larger than the input costs nothing: it ends as "truncated".
struct TreeFields {
  std::size_t num_features = 0;
  std::size_t num_classes = 0;
  std::vector<TreeNode> nodes;
};
TreeFields read_tree_fields(std::istream& in, const std::string& context = "<stream>");

}  // namespace verihvac::tree
