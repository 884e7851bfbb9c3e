// Minibatch MSE trainer.
//
// Implements the paper's training loop: epochs = 150, Adam(lr 1e-3,
// weight-decay 1e-5), MSE loss, shuffled minibatches. Also reports
// train/validation loss histories so model quality is inspectable.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace verihvac::nn {

struct TrainerConfig {
  std::size_t epochs = 150;
  /// Minibatch rows; must be > 0.
  std::size_t batch_size = 64;
  AdamConfig adam;
  /// Held-out fraction for validation-loss reporting, in [0, 1).
  double validation_fraction = 0.1;
  std::uint64_t shuffle_seed = 7;
};

struct TrainingReport {
  std::vector<double> train_loss_per_epoch;
  std::vector<double> val_loss_per_epoch;
  double final_train_loss = 0.0;
  double final_val_loss = 0.0;
};

/// Mean squared error over all elements.
double mse_loss(const Matrix& prediction, const Matrix& target);
/// Overwrites `target` with dMSE/dprediction = (pred - target) * (2/N).
void mse_gradient_inplace(const Matrix& prediction, Matrix& target);

/// Trains `model` in place on (inputs, targets); rows are samples. Inputs
/// and targets are expected pre-normalized by the caller (see
/// dynamics::DynamicsModel for the end-to-end wrapper). Throws
/// std::invalid_argument on empty or mismatched data, batch_size == 0 or a
/// validation_fraction outside [0, 1).
TrainingReport train(Mlp& model, const Matrix& inputs, const Matrix& targets,
                     const TrainerConfig& config);

}  // namespace verihvac::nn
