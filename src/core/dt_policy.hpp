// Decision-tree policy — §3.2.2.
//
// A CART classifier over the schema's (s, d) input whose classes are joint
// setpoint actions. Deterministic (every input maps to exactly one leaf),
// interpretable (each split tests one named physical variable against a
// threshold), and fast (one root-to-leaf walk per decision — the 1127x
// speedup of Table 3). Implements the Controller interface so it drops
// into the same evaluation harness as every baseline. The policy carries
// its observation schema: verification finds the zone-temperature
// dimension by role, serving flattens observations with the policy's own
// layout, and bundles persist it (policy_io v2).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "control/action_space.hpp"
#include "control/controller.hpp"
#include "core/decision_data.hpp"
#include "envlib/feature_schema.hpp"
#include "tree/cart.hpp"

namespace verihvac::core {

class DtPolicy final : public control::Controller {
 public:
  DtPolicy(tree::DecisionTreeClassifier tree, control::ActionSpace actions,
           env::FeatureSchema schema = env::baseline_schema());

  /// Fits a policy from a decision dataset (CART, unbounded depth — §4.1).
  static DtPolicy fit(const DecisionDataset& data, const control::ActionSpace& actions,
                      tree::TreeConfig config = {},
                      env::FeatureSchema schema = env::baseline_schema());

  sim::SetpointPair act(const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast) override;
  std::string name() const override { return "DT"; }

  /// Deterministic decision on a raw input vector in the schema's layout.
  sim::SetpointPair decide(const std::vector<double>& x) const;
  std::size_t decide_index(std::span<const double> x) const;

  const tree::DecisionTreeClassifier& tree() const { return tree_; }
  /// Mutable access for the verification correction step.
  tree::DecisionTreeClassifier& mutable_tree() { return tree_; }
  const control::ActionSpace& actions() const { return actions_; }
  /// Observation layout this policy decides over.
  const env::FeatureSchema& schema() const { return schema_; }

  /// Interpretable export with physical variable names and action labels.
  std::string to_text() const;

 private:
  tree::DecisionTreeClassifier tree_;
  control::ActionSpace actions_;
  env::FeatureSchema schema_;
};

}  // namespace verihvac::core
