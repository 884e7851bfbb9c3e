// Historical transition dataset T = {(s, d, a, s')}.
//
// In the paper this is "historical data ... extracted from the building
// management systems (BMS)". Here it is collected by running the simulated
// building under an exploratory controller (the default rule-based schedule
// mixed with random setpoint excursions), which is the standard MBRL
// system-identification recipe (MB2C / CLUE do the same on Sinergym).
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "envlib/env.hpp"
#include "envlib/feature_schema.hpp"

namespace verihvac::dyn {

struct Transition {
  std::vector<double> input;  ///< (s, d) in the collecting schema's layout
  sim::SetpointPair action;
  double next_zone_temp = 0.0;
};

class TransitionDataset {
 public:
  void add(Transition transition);
  std::size_t size() const { return transitions_.size(); }
  bool empty() const { return transitions_.empty(); }
  const Transition& at(std::size_t i) const { return transitions_.at(i); }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Observation dims per transition. Inferred from the first add();
  /// defaults to the baseline width while empty.
  std::size_t obs_dims() const { return obs_dims_; }
  /// Model-input width: observation dims followed by the 2 action dims.
  std::size_t model_input_dims() const { return obs_dims_ + 2; }
  std::size_t heat_index() const { return obs_dims_; }
  std::size_t cool_index() const { return obs_dims_ + 1; }

  /// Assembles the (N x model_input_dims) model-input matrix.
  Matrix inputs() const;
  /// Assembles the (N x 1) target matrix of next zone temperatures.
  Matrix targets() const;
  /// The (N x obs_dims) matrix of policy inputs (s, d) — the "historical
  /// data distribution" that importance sampling in §3.2.1 conditions on.
  Matrix policy_inputs() const;

  /// Concatenates another dataset (must have the same observation width).
  void append(const TransitionDataset& other);

 private:
  std::vector<Transition> transitions_;
  std::size_t obs_dims_ = env::baseline_schema().dims();
};

struct CollectionConfig {
  /// Episodes to run (different weather seeds).
  std::size_t episodes = 3;
  /// Probability a step takes a uniformly random valid action instead of
  /// the schedule action (exploration), while the zone is unoccupied.
  double exploration_rate = 0.5;
  /// Exploration while occupied. Kept low: a real BMS log shows mostly
  /// scheduled operation during occupancy, which concentrates the
  /// historical (and hence decision-data) distribution on the occupied
  /// in-comfort region the verification criteria actually guard.
  double occupied_exploration_rate = 0.15;
  std::uint64_t seed = 17;
  /// Observation layout the collected transitions are flattened with.
  /// The action sequence and weather draws are schema-independent, so two
  /// collections differing only in schema visit identical trajectories.
  env::FeatureSchema schema = env::baseline_schema();
};

/// Runs the exploratory controller on copies of `env_config` (varying the
/// weather seed per episode) and records every transition.
TransitionDataset collect_historical_data(const env::EnvConfig& env_config,
                                          const CollectionConfig& config);

}  // namespace verihvac::dyn
