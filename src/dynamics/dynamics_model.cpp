#include "dynamics/dynamics_model.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace verihvac::dyn {

DynamicsModel::DynamicsModel(DynamicsModelConfig config) : config_(std::move(config)) {
  std::vector<std::size_t> widths;
  widths.push_back(input_dims());
  widths.insert(widths.end(), config_.hidden.begin(), config_.hidden.end());
  widths.push_back(1);
  network_ = std::make_unique<nn::Mlp>(widths);
  Rng rng(config_.init_seed);
  network_->init(rng);
}

namespace {

/// One non-finite transition would turn every weight into NaN, so both
/// training entry points refuse such data before touching any state.
void require_finite(const TransitionDataset& data, const char* who) {
  for (std::size_t r = 0; r < data.size(); ++r) {
    if (!is_finite(data.at(r))) {
      throw std::invalid_argument(std::string(who) + ": non-finite value in transition " +
                                  std::to_string(r));
    }
  }
}

}  // namespace

nn::TrainingReport DynamicsModel::train(const TransitionDataset& data) {
  if (data.empty()) throw std::invalid_argument("DynamicsModel::train: empty dataset");
  if (data.obs_dims() != config_.schema.dims()) {
    throw std::invalid_argument("DynamicsModel::train: dataset has " +
                                std::to_string(data.obs_dims()) +
                                " observation dims, schema '" + config_.schema.name() +
                                "' expects " + std::to_string(config_.schema.dims()));
  }
  require_finite(data, "DynamicsModel::train");

  const Matrix raw_inputs = data.inputs();
  input_norm_.fit(raw_inputs);
  const Matrix inputs = input_norm_.transform(raw_inputs);

  // Targets: normalized temperature delta.
  const std::size_t zone_dim = zone_temp_index();
  Matrix deltas(data.size(), 1);
  for (std::size_t r = 0; r < data.size(); ++r) {
    deltas(r, 0) = data.at(r).next_zone_temp - data.at(r).input[zone_dim];
  }
  double mean = 0.0;
  for (std::size_t r = 0; r < deltas.rows(); ++r) mean += deltas(r, 0);
  mean /= static_cast<double>(deltas.rows());
  double var = 0.0;
  for (std::size_t r = 0; r < deltas.rows(); ++r) {
    var += (deltas(r, 0) - mean) * (deltas(r, 0) - mean);
  }
  delta_mean_ = mean;
  delta_std_ = std::sqrt(var / static_cast<double>(deltas.rows()));
  if (delta_std_ < 1e-9) delta_std_ = 1.0;
  for (std::size_t r = 0; r < deltas.rows(); ++r) {
    deltas(r, 0) = (deltas(r, 0) - delta_mean_) / delta_std_;
  }

  const nn::TrainingReport report = nn::train(*network_, inputs, deltas, config_.trainer);
  trained_ = true;
  return report;
}

DynamicsModel::DynamicsModel(const DynamicsModel& other)
    : config_(other.config_),
      network_(std::make_unique<nn::Mlp>(*other.network_)),
      input_norm_(other.input_norm_),
      delta_mean_(other.delta_mean_),
      delta_std_(other.delta_std_),
      trained_(other.trained_) {}

nn::TrainingReport DynamicsModel::fine_tune(const TransitionDataset& data, std::size_t epochs,
                                            std::uint64_t shuffle_salt) {
  if (!trained_) throw std::logic_error("DynamicsModel::fine_tune before train");
  if (data.empty()) throw std::invalid_argument("DynamicsModel::fine_tune: empty dataset");
  require_finite(data, "DynamicsModel::fine_tune");

  // Frozen statistics: normalize the new data with the *original* fit so
  // the network keeps seeing the input/target scales it was trained on.
  const Matrix inputs = input_norm_.transform(data.inputs());
  const std::size_t zone_dim = zone_temp_index();
  Matrix deltas(data.size(), 1);
  for (std::size_t r = 0; r < data.size(); ++r) {
    const double delta = data.at(r).next_zone_temp - data.at(r).input[zone_dim];
    deltas(r, 0) = (delta - delta_mean_) / delta_std_;
  }

  nn::TrainerConfig trainer = config_.trainer;
  trainer.epochs = epochs;
  trainer.shuffle_seed = config_.trainer.shuffle_seed + 0x5DEECE66Dull * (shuffle_salt + 1);
  return nn::train(*network_, inputs, deltas, trainer);
}

double DynamicsModel::predict(const std::vector<double>& x, const sim::SetpointPair& action,
                              PredictScratch& scratch) const {
  if (!trained_) throw std::logic_error("DynamicsModel used before training");
  assert(x.size() == config_.schema.dims());
  scratch.input.assign(x.begin(), x.end());
  scratch.input.push_back(action.heating_c);
  scratch.input.push_back(action.cooling_c);
  const double current_temp = scratch.input[zone_temp_index()];

  input_norm_.transform_inplace(scratch.input);
  network_->predict(scratch.input, scratch.activ_a, scratch.activ_b);
  const double delta = scratch.activ_a[0] * delta_std_ + delta_mean_;
  return current_temp + delta;
}

void DynamicsModel::predict_batch_into(const Matrix& model_inputs,
                                       std::vector<double>& next_temps,
                                       BatchScratch& scratch) const {
  if (!trained_) throw std::logic_error("DynamicsModel used before training");
  assert(model_inputs.cols() == input_dims());
  const std::size_t n = model_inputs.rows();
  const std::size_t zone_dim = zone_temp_index();
  input_norm_.transform_into(model_inputs, scratch.normed);
  network_->forward_into(scratch.normed, scratch.delta, scratch.net);
  next_temps.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double delta = scratch.delta(r, 0) * delta_std_ + delta_mean_;
    next_temps[r] = model_inputs(r, zone_dim) + delta;
  }
}

}  // namespace verihvac::dyn
