#include "core/policy_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/fnv1a.hpp"
#include "tree/tree_io.hpp"

namespace verihvac::core {
namespace {

/// Interval endpoints are written as "inf"/"-inf" tokens or with enough
/// digits to round-trip exactly (write→read→write is byte-identical).
void write_bound(std::ostream& out, double v) {
  if (std::isinf(v)) {
    out << (v > 0.0 ? "inf" : "-inf");
    return;
  }
  std::ostringstream tmp;
  tmp << std::setprecision(17) << v;
  out << tmp.str();
}

double read_bound(std::istream& in, const std::string& context) {
  std::string token;
  in >> token;
  if (!in) throw std::runtime_error("read_policy: truncated schema bound in " + context);
  if (token == "inf") return std::numeric_limits<double>::infinity();
  if (token == "-inf") return -std::numeric_limits<double>::infinity();
  try {
    return std::stod(token);
  } catch (const std::exception&) {
    throw std::runtime_error("read_policy: bad schema bound '" + token + "' in " + context);
  }
}

void write_schema(const env::FeatureSchema& schema, std::ostream& out) {
  out << "schema " << schema.name() << ' ' << schema.dims() << '\n';
  for (const env::FeatureSpec& f : schema.features()) {
    out << "feature " << f.name << ' ' << f.unit << ' ' << env::feature_kind_name(f.kind)
        << ' ' << env::feature_role_name(f.role) << ' ';
    write_bound(out, f.bounds.lo);
    out << ' ';
    write_bound(out, f.bounds.hi);
    out << '\n';
  }
}

/// A schema block as parsed. `features` grows as lines are read, so a
/// stated dims larger than the input ends as "truncated", not as an
/// allocation of that size.
struct SchemaFields {
  std::string name;
  std::vector<env::FeatureSpec> features;
};

SchemaFields read_schema(std::istream& in, const std::string& context) {
  std::string tag;
  SchemaFields out;
  std::size_t dims = 0;
  in >> tag >> out.name >> dims;
  if (!in || tag != "schema" || dims == 0) {
    throw std::runtime_error("read_policy: bad schema header in " + context);
  }
  for (std::size_t i = 0; i < dims; ++i) {
    std::string kind;
    std::string role;
    env::FeatureSpec spec;
    in >> tag >> spec.name >> spec.unit >> kind >> role;
    if (!in || tag != "feature") {
      throw std::runtime_error("read_policy: truncated schema feature in " + context);
    }
    try {
      spec.kind = env::feature_kind_from_name(kind);
      spec.role = env::feature_role_from_name(role);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("read_policy: " + std::string(e.what()) + " in " + context);
    }
    spec.bounds.lo = read_bound(in, context);
    spec.bounds.hi = read_bound(in, context);
    out.features.push_back(std::move(spec));
  }
  return out;
}

std::uint64_t as_word(int v) { return static_cast<std::uint64_t>(static_cast<std::int64_t>(v)); }

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << fingerprint;
  return hex.str();
}

/// The policy fingerprint over decoded fields, so read_policy can check a
/// bundle before building anything from it.
std::uint64_t fingerprint_fields(const std::string& schema_name,
                                 const std::vector<env::FeatureSpec>& features,
                                 const control::ActionSpaceConfig& grid,
                                 std::size_t num_features, std::size_t num_classes,
                                 const std::vector<tree::TreeNode>& nodes) {
  common::Fnv1a h;
  h.str(schema_name).u64(features.size());
  for (const env::FeatureSpec& f : features) {
    h.str(f.name)
        .str(f.unit)
        .u64(static_cast<std::uint64_t>(f.kind))
        .u64(static_cast<std::uint64_t>(f.role))
        .f64(f.bounds.lo)
        .f64(f.bounds.hi);
  }
  h.u64(as_word(grid.heat_min))
      .u64(as_word(grid.heat_max))
      .u64(as_word(grid.cool_min))
      .u64(as_word(grid.cool_max))
      .u64(grid.enforce_heat_le_cool ? 1 : 0);
  // Decision function only: sample counts and impurity are diagnostics.
  h.u64(num_features).u64(num_classes).u64(nodes.size());
  for (const tree::TreeNode& node : nodes) {
    h.u64(as_word(node.feature))
        .f64(node.threshold)
        .u64(as_word(node.left))
        .u64(as_word(node.right))
        .u64(as_word(node.label));
  }
  return h.digest();
}

env::FeatureSchema build_schema(SchemaFields fields, const std::string& context) {
  try {
    return env::FeatureSchema(std::move(fields.name), std::move(fields.features));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("read_policy: invalid schema (" + std::string(e.what()) +
                             ") in " + context);
  }
}

}  // namespace

std::uint64_t policy_fingerprint(const DtPolicy& policy) {
  const tree::DecisionTreeClassifier& tree = policy.tree();
  return fingerprint_fields(policy.schema().name(), policy.schema().features(),
                            policy.actions().config(), tree.num_features(), tree.num_classes(),
                            tree.nodes());
}

void write_policy(const DtPolicy& policy, std::ostream& out) {
  const control::ActionSpaceConfig& grid = policy.actions().config();
  out << "verihvac-policy v3\n";
  out << "fingerprint " << fingerprint_hex(policy_fingerprint(policy)) << '\n';
  write_schema(policy.schema(), out);
  out << grid.heat_min << ' ' << grid.heat_max << ' ' << grid.cool_min << ' ' << grid.cool_max
      << ' ' << (grid.enforce_heat_le_cool ? 1 : 0) << '\n';
  tree::write_tree(policy.tree(), out);
}

DtPolicy read_policy(std::istream& in, const std::string& context) {
  std::string magic;
  std::string version;
  in >> magic >> version;
  if (magic != "verihvac-policy" || version != "v3") {
    throw std::runtime_error("read_policy: bad header in " + context);
  }
  std::string tag;
  std::string stated_fingerprint;
  in >> tag >> stated_fingerprint;
  if (!in || tag != "fingerprint" || stated_fingerprint.size() != 16) {
    throw std::runtime_error("read_policy: bad fingerprint line in " + context);
  }
  SchemaFields schema_fields = read_schema(in, context);

  control::ActionSpaceConfig grid;
  int enforce = 1;
  in >> grid.heat_min >> grid.heat_max >> grid.cool_min >> grid.cool_max >> enforce;
  if (!in) throw std::runtime_error("read_policy: truncated action space in " + context);
  grid.enforce_heat_le_cool = enforce != 0;
  tree::TreeFields tree_fields = tree::read_tree_fields(in, context);

  // Check the parsed fields against the fingerprint the bundle was sealed
  // with before building anything from them: a corrupt or tampered bundle
  // is refused without enumerating the grid or the tree it states.
  const std::string actual = fingerprint_hex(
      fingerprint_fields(schema_fields.name, schema_fields.features, grid,
                         tree_fields.num_features, tree_fields.num_classes, tree_fields.nodes));
  if (actual != stated_fingerprint) {
    throw std::runtime_error("read_policy: fingerprint mismatch in " + context + " (stated " +
                             stated_fingerprint + ", content " + actual +
                             ") — bundle corrupted or tampered");
  }

  env::FeatureSchema schema = build_schema(std::move(schema_fields), context);
  control::ActionSpace actions(grid);  // validates the grid itself
  tree::DecisionTreeClassifier tree = tree::DecisionTreeClassifier::from_nodes(
      std::move(tree_fields.nodes), tree_fields.num_features, tree_fields.num_classes);
  if (tree.num_classes() != actions.size()) {
    throw std::runtime_error("read_policy: tree classes (" +
                             std::to_string(tree.num_classes()) +
                             ") do not match the embedded action space (" +
                             std::to_string(actions.size()) + ") in " + context);
  }
  if (tree.num_features() != schema.dims()) {
    throw std::runtime_error("read_policy: tree features (" +
                             std::to_string(tree.num_features()) +
                             ") do not match the embedded schema '" + schema.name() + "' (" +
                             std::to_string(schema.dims()) + " dims) in " + context);
  }
  return DtPolicy(std::move(tree), std::move(actions), std::move(schema));
}

void save_policy(const DtPolicy& policy, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_policy: cannot open " + path);
  write_policy(policy, out);
  if (!out.flush()) throw std::runtime_error("save_policy: write failed for " + path);
}

DtPolicy load_policy(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_policy: cannot open " + path);
  return read_policy(in, path);
}

}  // namespace verihvac::core
