#include "dynamics/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace verihvac::dyn {

bool is_finite(const Transition& transition) {
  bool finite = std::isfinite(transition.next_zone_temp) &&
                std::isfinite(transition.action.heating_c) &&
                std::isfinite(transition.action.cooling_c);
  for (const double v : transition.input) finite = finite && std::isfinite(v);
  return finite;
}

void TransitionDataset::add(Transition transition) {
  if (transitions_.empty()) {
    obs_dims_ = transition.input.size();
  } else if (transition.input.size() != obs_dims_) {
    throw std::invalid_argument("TransitionDataset::add: observation width mismatch");
  }
  transitions_.push_back(std::move(transition));
}

Matrix TransitionDataset::inputs() const {
  Matrix x(transitions_.size(), model_input_dims());
  for (std::size_t r = 0; r < transitions_.size(); ++r) {
    const Transition& t = transitions_[r];
    for (std::size_t c = 0; c < obs_dims_; ++c) x(r, c) = t.input[c];
    x(r, heat_index()) = t.action.heating_c;
    x(r, cool_index()) = t.action.cooling_c;
  }
  return x;
}

Matrix TransitionDataset::targets() const {
  Matrix y(transitions_.size(), 1);
  for (std::size_t r = 0; r < transitions_.size(); ++r) {
    y(r, 0) = transitions_[r].next_zone_temp;
  }
  return y;
}

Matrix TransitionDataset::policy_inputs() const {
  Matrix x(transitions_.size(), obs_dims_);
  for (std::size_t r = 0; r < transitions_.size(); ++r) {
    for (std::size_t c = 0; c < obs_dims_; ++c) x(r, c) = transitions_[r].input[c];
  }
  return x;
}

void TransitionDataset::append(const TransitionDataset& other) {
  if (other.empty()) return;
  if (transitions_.empty()) {
    obs_dims_ = other.obs_dims_;
  } else if (other.obs_dims_ != obs_dims_) {
    throw std::invalid_argument("TransitionDataset::append: observation width mismatch");
  }
  transitions_.insert(transitions_.end(), other.transitions_.begin(),
                      other.transitions_.end());
}

TransitionDataset collect_historical_data(const env::EnvConfig& env_config,
                                          const CollectionConfig& config) {
  TransitionDataset dataset;
  Rng rng(config.seed);

  for (std::size_t episode = 0; episode < config.episodes; ++episode) {
    env::EnvConfig cfg = env_config;
    cfg.weather_seed = env_config.weather_seed + episode * 1000003ull;
    env::BuildingEnv env(cfg);
    env::Observation obs = env.reset();

    bool done = false;
    while (!done) {
      sim::SetpointPair action;
      const bool occupied = obs.occupants > 0.5;
      const double explore =
          occupied ? config.occupied_exploration_rate : config.exploration_rate;
      if (rng.bernoulli(explore)) {
        // Random valid integer setpoint pair (heat in [15,23], cool in
        // [max(heat,21),30]) — spans the whole action space.
        action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
        const int cool_lo = std::max(static_cast<int>(action.heating_c), 21);
        action.cooling_c = static_cast<double>(rng.uniform_int(cool_lo, 30));
      } else {
        action = occupied ? cfg.default_occupied : cfg.default_unoccupied;
      }

      Transition t;
      t.input = config.schema.to_vector(obs);
      t.action = action;
      const env::StepOutcome outcome = env.step(action);
      t.next_zone_temp = outcome.observation.zone_temp_c;
      dataset.add(std::move(t));

      obs = outcome.observation;
      done = outcome.done;
    }
  }
  return dataset;
}

}  // namespace verihvac::dyn
