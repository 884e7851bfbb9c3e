// Bootstrap ensemble of dynamics models.
//
// CLUE's safety mechanism gates MBRL actions on *epistemic* uncertainty:
// disagreement between ensemble members trained on bootstrap resamples of
// the historical data. This class provides the mean prediction (used for
// planning) and the member standard deviation (the uncertainty signal).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dynamics/dynamics_model.hpp"

namespace verihvac::dyn {

struct EnsembleConfig {
  std::size_t members = 3;
  DynamicsModelConfig member_config;
  std::uint64_t bootstrap_seed = 29;
};

struct EnsemblePrediction {
  double mean = 0.0;
  double stddev = 0.0;  ///< epistemic spread across members
};

class EnsembleDynamics {
 public:
  explicit EnsembleDynamics(EnsembleConfig config = {});

  /// Not copyable: an ensemble is trained once and then shared read-only.
  EnsembleDynamics(const EnsembleDynamics&) = delete;
  EnsembleDynamics& operator=(const EnsembleDynamics&) = delete;

  /// Trains every member on an independent bootstrap resample of `data`.
  void train(const TransitionDataset& data);

  bool trained() const { return trained_; }
  std::size_t member_count() const { return members_.size(); }
  const DynamicsModel& member(std::size_t i) const { return *members_.at(i); }

  /// Observation layout shared by every member (from member_config).
  const env::FeatureSchema& schema() const { return config_.member_config.schema; }

  /// Mean/stddev across members for one (s, d, a) query. Every member
  /// predicts through the caller's scratch, so threads with their own
  /// scratch may share one const ensemble.
  EnsemblePrediction predict(const std::vector<double>& x, const sim::SetpointPair& action,
                             PredictScratch& scratch) const;

 private:
  EnsembleConfig config_;
  std::vector<std::unique_ptr<DynamicsModel>> members_;
  bool trained_ = false;
};

}  // namespace verihvac::dyn
