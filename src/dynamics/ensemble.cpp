#include "dynamics/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace verihvac::dyn {

EnsembleDynamics::EnsembleDynamics(EnsembleConfig config) : config_(std::move(config)) {
  if (config_.members == 0) throw std::invalid_argument("ensemble needs >= 1 member");
}

EnsembleDynamics::EnsembleDynamics(const EnsembleDynamics& other)
    : config_(other.config_), trained_(other.trained_) {
  members_.reserve(other.members_.size());
  for (const auto& member : other.members_) {
    members_.push_back(std::make_unique<DynamicsModel>(*member));
  }
}

void EnsembleDynamics::train(const TransitionDataset& data) {
  if (data.empty()) throw std::invalid_argument("EnsembleDynamics::train: empty dataset");
  members_.clear();
  Rng rng(config_.bootstrap_seed);
  for (std::size_t m = 0; m < config_.members; ++m) {
    // Bootstrap resample with replacement.
    TransitionDataset resample;
    for (std::size_t i = 0; i < data.size(); ++i) {
      resample.add(data.at(rng.index(data.size())));
    }
    DynamicsModelConfig member_cfg = config_.member_config;
    member_cfg.init_seed = config_.member_config.init_seed + m * 7919;
    member_cfg.trainer.shuffle_seed = config_.member_config.trainer.shuffle_seed + m;
    auto model = std::make_unique<DynamicsModel>(member_cfg);
    model->train(resample);
    members_.push_back(std::move(model));
  }
  trained_ = true;
}

void EnsembleDynamics::fine_tune(const TransitionDataset& data, std::size_t epochs,
                                 std::uint64_t generation) {
  if (!trained_) throw std::logic_error("EnsembleDynamics::fine_tune before train");
  if (data.empty()) throw std::invalid_argument("EnsembleDynamics::fine_tune: empty dataset");
  Rng rng = Rng::stream(config_.bootstrap_seed, generation + 1);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    TransitionDataset resample;
    for (std::size_t i = 0; i < data.size(); ++i) {
      resample.add(data.at(rng.index(data.size())));
    }
    members_[m]->fine_tune(resample, epochs, generation * members_.size() + m);
  }
}

void EnsembleDynamics::predict_batch_into(const Matrix& model_inputs,
                                          std::vector<EnsemblePrediction>& out,
                                          BatchScratch& scratch) const {
  if (!trained_) throw std::logic_error("EnsembleDynamics used before training");
  const std::size_t n = model_inputs.rows();
  scratch.sum.assign(n, 0.0);
  scratch.sum_sq.assign(n, 0.0);
  for (const auto& member : members_) {
    member->predict_batch_into(model_inputs, scratch.member_temps, scratch);
    for (std::size_t r = 0; r < n; ++r) {
      const double p = scratch.member_temps[r];
      scratch.sum[r] += p;
      scratch.sum_sq[r] += p * p;
    }
  }
  const double count = static_cast<double>(members_.size());
  out.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    out[r].mean = scratch.sum[r] / count;
    const double var = std::max(0.0, scratch.sum_sq[r] / count - out[r].mean * out[r].mean);
    out[r].stddev = std::sqrt(var);
  }
}

EnsemblePrediction EnsembleDynamics::predict(const std::vector<double>& x,
                                             const sim::SetpointPair& action,
                                             PredictScratch& scratch) const {
  if (!trained_) throw std::logic_error("EnsembleDynamics used before training");
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& member : members_) {
    const double p = member->predict(x, action, scratch);
    sum += p;
    sum_sq += p * p;
  }
  const double n = static_cast<double>(members_.size());
  EnsemblePrediction out;
  out.mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - out.mean * out.mean);
  out.stddev = std::sqrt(var);
  return out;
}

}  // namespace verihvac::dyn
