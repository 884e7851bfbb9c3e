#include "core/dt_policy.hpp"

#include <stdexcept>

#include "envlib/observation.hpp"
#include "tree/tree_io.hpp"

namespace verihvac::core {

DtPolicy::DtPolicy(tree::DecisionTreeClassifier tree, control::ActionSpace actions,
                   env::FeatureSchema schema)
    : tree_(std::move(tree)), actions_(std::move(actions)), schema_(std::move(schema)) {
  if (!tree_.fitted()) throw std::invalid_argument("DtPolicy: tree not fitted");
  if (tree_.num_features() != schema_.dims()) {
    throw std::invalid_argument("DtPolicy: tree takes " +
                                std::to_string(tree_.num_features()) +
                                " features but schema '" + schema_.name() + "' has " +
                                std::to_string(schema_.dims()));
  }
  if (tree_.num_classes() > actions_.size()) {
    throw std::invalid_argument("DtPolicy: tree classes exceed action space");
  }
}

DtPolicy DtPolicy::fit(const DecisionDataset& data, const control::ActionSpace& actions,
                       tree::TreeConfig config, env::FeatureSchema schema) {
  if (data.empty()) throw std::invalid_argument("DtPolicy::fit: empty decision dataset");
  tree::DecisionTreeClassifier tree(config);
  tree.fit(data.inputs(), data.labels(), actions.size());
  return DtPolicy(std::move(tree), actions, std::move(schema));
}

sim::SetpointPair DtPolicy::act(const env::Observation& obs,
                                const std::vector<env::Disturbance>& forecast) {
  (void)forecast;
  return decide(schema_.to_vector(obs));
}

sim::SetpointPair DtPolicy::decide(const std::vector<double>& x) const {
  return actions_.action(decide_index(x));
}

std::size_t DtPolicy::decide_index(std::span<const double> x) const {
  return static_cast<std::size_t>(tree_.predict(x));
}

std::string DtPolicy::to_text() const {
  std::vector<std::string> feature_names = schema_.feature_names();
  std::vector<std::string> class_names;
  class_names.reserve(actions_.size());
  for (std::size_t i = 0; i < actions_.size(); ++i) class_names.push_back(actions_.label(i));
  return tree::to_text(tree_, feature_names, class_names);
}

}  // namespace verihvac::core
