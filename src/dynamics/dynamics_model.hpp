// Learned thermal-dynamics model f_hat(s, d, a) -> s'.
//
// An MLP regressor over normalized inputs. Internally the network predicts
// the *temperature delta* (s' - s) in normalized space — the standard MBRL
// trick that makes small one-step residuals well-conditioned — but the
// public API speaks absolute next-state temperature, exactly like the
// paper's f_hat.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dynamics/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/normalizer.hpp"
#include "nn/trainer.hpp"

namespace verihvac::dyn {

struct DynamicsModelConfig {
  std::vector<std::size_t> hidden = {32, 32};
  nn::TrainerConfig trainer;  ///< epochs=150, Adam(1e-3, wd 1e-5) — paper §4.1
  std::uint64_t init_seed = 3;
  /// Observation layout: sizes the input layer (schema dims + 2 action
  /// dims) and locates the zone-temperature dimension by role.
  env::FeatureSchema schema = env::baseline_schema();
};

/// Caller-owned scratch buffers for the allocation-free scalar predict.
/// Each thread owns its instance, so predictions on a shared const model
/// are thread-safe.
struct PredictScratch {
  std::vector<double> input;   ///< model input, normalized in place
  std::vector<double> activ_a;  ///< ping-pong activation buffers
  std::vector<double> activ_b;
};

/// Caller-owned scratch for the batched predict path (the batch analogue
/// of PredictScratch, same ownership convention: one per worker thread
/// makes batched prediction on a shared const model thread-safe).
/// All buffers grow to the largest batch seen, then get reused.
struct BatchScratch {
  /// Normalized N x input_dims model inputs.
  Matrix normed;
  /// MLP ping-pong activation matrices.
  nn::BatchScratch net;
  /// N x 1 normalized-delta network output.
  Matrix delta;
};

class DynamicsModel {
 public:
  explicit DynamicsModel(DynamicsModelConfig config = {});

  /// Deep copy (network weights, normalizer, delta statistics). The
  /// adaptation loop clones the serving model into a fine-tune candidate
  /// so the incumbent keeps serving unchanged until promotion.
  DynamicsModel(const DynamicsModel& other);
  DynamicsModel& operator=(const DynamicsModel&) = delete;

  /// Fits normalizers + network on the dataset. Returns the training report.
  /// Throws std::invalid_argument, leaving the model unchanged, on an empty
  /// dataset or one holding a non-finite input or target.
  nn::TrainingReport train(const TransitionDataset& data);

  /// Continues training the *already trained* network on `data` for
  /// `epochs` epochs (warm start from the current weights; fresh Adam
  /// moments). The input normalizer and delta statistics stay frozen, so
  /// the interval-verifier decomposition (input_normalizer / delta_mean /
  /// delta_std) remains valid and fine-tuning only moves the network — the
  /// adaptation loop's retrain step. `shuffle_salt` perturbs the minibatch
  /// shuffle seed so successive adaptation generations are independent yet
  /// fully seeded. Throws std::logic_error before train(), and rejects
  /// data like train() does, leaving the model unchanged.
  nn::TrainingReport fine_tune(const TransitionDataset& data, std::size_t epochs,
                               std::uint64_t shuffle_salt = 0);

  bool trained() const { return trained_; }

  /// Predicts the next zone temperature for one (s, d, a) query. `x` is
  /// the schema-dims policy input. All mutable state lives in the
  /// caller's scratch, so threads with their own scratch may share one
  /// const model.
  double predict(const std::vector<double>& x, const sim::SetpointPair& action,
                 PredictScratch& scratch) const;

  /// Allocation-free batched prediction: fuses normalize -> network ->
  /// denormalize-delta over all rows of `model_inputs` (N x input_dims),
  /// writing next_temps[r] for row r. Thread-safe on a shared const model
  /// with one scratch per worker. Row r is bit-identical to the scalar
  /// predict on the same inputs (locked in by
  /// tests/dynamics/dynamics_model_test and the rollout equivalence tests)
  /// — this is the lock-step rollout engine's hot path.
  void predict_batch_into(const Matrix& model_inputs, std::vector<double>& next_temps,
                          BatchScratch& scratch) const;

  const nn::Mlp& network() const { return *network_; }
  const DynamicsModelConfig& config() const { return config_; }

  /// Observation layout the model was built for.
  const env::FeatureSchema& schema() const { return config_.schema; }
  /// Model-input width: schema dims followed by the 2 action dims.
  std::size_t input_dims() const { return config_.schema.dims() + 2; }
  std::size_t heat_index() const { return config_.schema.dims(); }
  std::size_t cool_index() const { return config_.schema.dims() + 1; }
  /// The state dimension the model predicts, located by role.
  std::size_t zone_temp_index() const { return config_.schema.zone_temp_index(); }

  // Prediction decomposition (exposed for the interval verifier, which
  // re-implements predict(x, action, scratch) in interval arithmetic):
  //   predict(x) = x[zone_temp_index] + delta_mean + delta_std * net(norm(x)).
  const nn::Normalizer& input_normalizer() const { return input_norm_; }
  double delta_mean() const { return delta_mean_; }
  double delta_std() const { return delta_std_; }

 private:
  DynamicsModelConfig config_;
  std::unique_ptr<nn::Mlp> network_;
  nn::Normalizer input_norm_;
  double delta_mean_ = 0.0;
  double delta_std_ = 1.0;
  bool trained_ = false;
};

}  // namespace verihvac::dyn
