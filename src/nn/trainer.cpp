#include "nn/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/rng.hpp"

namespace verihvac::nn {

namespace {

/// `sum` plus the squared errors, added in element order.
double add_squared_errors(double sum, const Matrix& prediction, const Matrix& target) {
  assert(prediction.rows() == target.rows() && prediction.cols() == target.cols());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = prediction.data()[i] - target.data()[i];
    sum += d * d;
  }
  return sum;
}

/// out = rows indices[begin, end) of `data`, into a reused buffer.
void gather_rows(const Matrix& data, const std::vector<std::size_t>& indices, std::size_t begin,
                 std::size_t end, Matrix& out) {
  out.reshape(end - begin, data.cols());
  for (std::size_t i = begin; i < end; ++i) {
    std::memcpy(out.row_data(i - begin), data.row_data(indices[i]), data.cols() * sizeof(double));
  }
}

}  // namespace

double mse_loss(const Matrix& prediction, const Matrix& target) {
  return add_squared_errors(0.0, prediction, target) / static_cast<double>(prediction.size());
}

void mse_gradient_inplace(const Matrix& prediction, Matrix& target) {
  assert(prediction.rows() == target.rows() && prediction.cols() == target.cols());
  const double scale = 2.0 / static_cast<double>(prediction.size());
  for (std::size_t i = 0; i < target.size(); ++i) {
    target.data()[i] = (prediction.data()[i] - target.data()[i]) * scale;
  }
}

TrainingReport train(Mlp& model, const Matrix& inputs, const Matrix& targets,
                     const TrainerConfig& config) {
  if (inputs.rows() != targets.rows() || inputs.rows() == 0) {
    throw std::invalid_argument("train: inputs/targets row mismatch or empty");
  }
  if (config.batch_size == 0) throw std::invalid_argument("train: batch_size must be > 0");
  if (!(config.validation_fraction >= 0.0 && config.validation_fraction < 1.0)) {
    throw std::invalid_argument("train: validation_fraction must lie in [0, 1)");
  }
  Rng rng(config.shuffle_seed);
  Adam optimizer(model, config.adam);

  // Split train/validation once.
  auto perm = rng.permutation(inputs.rows());
  const auto val_count = static_cast<std::size_t>(
      config.validation_fraction * static_cast<double>(inputs.rows()));
  const std::size_t train_count = inputs.rows() - val_count;
  std::vector<std::size_t> train_idx(perm.begin(), perm.begin() + static_cast<long>(train_count));
  std::vector<std::size_t> val_idx(perm.begin() + static_cast<long>(train_count), perm.end());

  // Validation also runs in batch_size chunks, so training buffers stay
  // batch-sized; forward rows are independent and the squared errors sum
  // in whole-matrix order, so chunking moves no bit of the loss.
  Matrix bx;
  Matrix by;  // batch targets, then overwritten by the loss gradient

  TrainingReport report;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Reshuffle training indices each epoch.
    for (std::size_t i = train_idx.size(); i > 1; --i) {
      std::swap(train_idx[i - 1], train_idx[rng.index(i)]);
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < train_count; begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, train_count);
      gather_rows(inputs, train_idx, begin, end, bx);
      gather_rows(targets, train_idx, begin, end, by);

      model.zero_grad();
      const Matrix& pred = model.forward(bx);
      epoch_loss += mse_loss(pred, by);
      ++batches;
      mse_gradient_inplace(pred, by);
      model.backward(bx, by);
      optimizer.step();
    }
    report.train_loss_per_epoch.push_back(epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1)));
    if (val_idx.empty()) {
      report.val_loss_per_epoch.push_back(report.train_loss_per_epoch.back());
    } else {
      double sum = 0.0;
      for (std::size_t begin = 0; begin < val_idx.size(); begin += config.batch_size) {
        const std::size_t end = std::min(begin + config.batch_size, val_idx.size());
        gather_rows(inputs, val_idx, begin, end, bx);
        gather_rows(targets, val_idx, begin, end, by);
        sum = add_squared_errors(sum, model.forward(bx), by);
      }
      const auto elements = static_cast<double>(val_idx.size() * targets.cols());
      report.val_loss_per_epoch.push_back(sum / elements);
    }
  }
  model.release_training_buffers();
  report.final_train_loss =
      report.train_loss_per_epoch.empty() ? 0.0 : report.train_loss_per_epoch.back();
  report.final_val_loss =
      report.val_loss_per_epoch.empty() ? 0.0 : report.val_loss_per_epoch.back();
  return report;
}

}  // namespace verihvac::nn
