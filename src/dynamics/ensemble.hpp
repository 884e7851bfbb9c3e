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

  /// Deep copy (every member's weights). The adaptation loop fine-tunes a
  /// clone so a failed certification leaves the live drift-residual
  /// baseline untouched.
  EnsembleDynamics(const EnsembleDynamics& other);
  EnsembleDynamics& operator=(const EnsembleDynamics&) = delete;

  /// Trains every member on an independent bootstrap resample of `data`.
  void train(const TransitionDataset& data);

  /// Fine-tunes every *already trained* member for `epochs` epochs on an
  /// independent bootstrap resample of `data` (fresh resamples drawn from
  /// a generation-salted stream, so successive adaptation rounds are
  /// independent yet reproducible). Member normalizers stay frozen — see
  /// DynamicsModel::fine_tune. Throws std::logic_error before train().
  void fine_tune(const TransitionDataset& data, std::size_t epochs,
                 std::uint64_t generation = 0);

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

  /// Batched variant over N x input_dims model inputs (observation dims
  /// followed by the two setpoints): every member runs one
  /// batched forward, and the member-major accumulation matches the scalar
  /// predict() loop, so out[r] is bit-identical to predict() on row r.
  /// Thread-safe on a shared const ensemble with one scratch per worker.
  void predict_batch_into(const Matrix& model_inputs, std::vector<EnsemblePrediction>& out,
                          BatchScratch& scratch) const;

 private:
  EnsembleConfig config_;
  std::vector<std::unique_ptr<DynamicsModel>> members_;
  bool trained_ = false;
};

}  // namespace verihvac::dyn
