#include "control/random_shooting.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "weather/occupancy.hpp"

namespace verihvac::control {

namespace {

/// The calling thread's persistent RolloutScratch: pool workers live for
/// the process, so each worker's candidate matrix and activation buffers
/// warm up once and serve every subsequent batch.
RolloutScratch& worker_rollout_scratch() {
  static thread_local RolloutScratch scratch;
  return scratch;
}

/// The calling thread's solve() buffers, kept warm across calls like
/// RolloutScratch (inner sequences reuse their capacity).
struct SolveBuffers {
  std::vector<std::vector<std::size_t>> candidates;
  std::vector<std::vector<std::size_t>> refine;
  std::vector<double> returns;
  std::vector<double> best_returns;
  /// Per repeat: the winning candidate's index, then its first action.
  std::vector<std::size_t> winners;
};

SolveBuffers& solve_buffers() {
  static thread_local SolveBuffers buffers;
  return buffers;
}

/// Runs slice(worker, begin, end) over [0, n): sharded across `engine`'s
/// pool when it has workers, else inline on the calling thread. Slicing
/// cannot change any candidate's arithmetic (rows are independent through
/// the batched forward), so results are bit-identical either way.
void for_slices(const RolloutEngine* engine, std::size_t n,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& slice) {
  if (engine != nullptr && engine->thread_count() > 1) {
    engine->parallel_for(n, slice);
  } else {
    slice(0, 0, n);
  }
}

}  // namespace

RandomShooting::RandomShooting(RandomShootingConfig config, const ActionSpace& actions,
                               env::RewardConfig reward)
    : config_(config), actions_(actions), reward_(reward) {
  if (config_.samples == 0 || config_.horizon == 0) {
    throw std::invalid_argument("RandomShooting: samples and horizon must be positive");
  }
}

double RandomShooting::rollout_return(const dyn::DynamicsModel& model,
                                      const env::Observation& obs,
                                      const std::vector<env::Disturbance>& forecast,
                                      const std::vector<std::size_t>& action_sequence,
                                      dyn::PredictScratch& scratch) const {
  assert(forecast.size() >= action_sequence.size());
  const env::FeatureSchema& schema = model.schema();
  const std::size_t zone_dim = schema.zone_temp_index();
  const std::size_t occ_dim = schema.occupancy_index();
  std::vector<double> x = schema.to_vector(obs);
  double discount = 1.0;
  double total = 0.0;
  for (std::size_t t = 0; t < action_sequence.size(); ++t) {
    const sim::SetpointPair action = actions_.action(action_sequence[t]);
    const double next_temp = model.predict(x, action, scratch);
    // r(f_hat(s_t, d_t, a_t), a_t): comfort of the predicted state plus the
    // energy proxy of the action taken, weighted by occupancy at step t.
    const bool occupied = weather::is_occupied(x[occ_dim]);
    total += discount * env::reward(reward_, next_temp, action, occupied);
    discount *= config_.gamma;

    // Advance the input to step t+1: predicted state + forecast disturbances.
    x[zone_dim] = next_temp;
    schema.apply_disturbance(forecast[t], x.data());
  }
  return total;
}

void RandomShooting::rollout_returns_slice(const dyn::DynamicsModel& model,
                                           const env::Observation& obs,
                                           const std::vector<env::Disturbance>& forecast,
                                           const std::vector<std::vector<std::size_t>>& sequences,
                                           std::size_t begin, std::size_t end,
                                           std::vector<double>& returns,
                                           RolloutScratch& scratch) const {
  assert(end <= sequences.size() && returns.size() >= sequences.size());
  const std::size_t n = end - begin;
  if (n == 0) return;
  std::size_t max_len = 0;
  for (std::size_t s = begin; s < end; ++s) max_len = std::max(max_len, sequences[s].size());
  assert(forecast.size() >= max_len);

  // Structure-of-arrays candidate state: row r holds candidate begin+r's
  // current model input (schema observation dims + the 2 setpoints of the
  // action about to be applied).
  const env::FeatureSchema& schema = model.schema();
  const std::size_t zone_dim = schema.zone_temp_index();
  const std::size_t occ_dim = schema.occupancy_index();
  const std::size_t heat_col = model.heat_index();
  const std::size_t cool_col = model.cool_index();
  const std::vector<double> x0 = schema.to_vector(obs);
  scratch.states.resize(n, model.input_dims());
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(x0.begin(), x0.end(), scratch.states.row_data(r));
  }
  scratch.discounts.assign(n, 1.0);
  scratch.actions.resize(n);
  for (std::size_t s = begin; s < end; ++s) returns[s] = 0.0;

  for (std::size_t t = 0; t < max_len; ++t) {
    // Stage the step-t action of every still-live candidate into the two
    // setpoint columns. Finished candidates (shorter sequences) keep their
    // last state/action: they still ride through the batched forward — the
    // prediction is discarded, so they cannot affect any other row.
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<std::size_t>& seq = sequences[begin + r];
      if (t >= seq.size()) continue;
      const sim::SetpointPair action = actions_.action(seq[t]);
      scratch.actions[r] = action;
      scratch.states(r, heat_col) = action.heating_c;
      scratch.states(r, cool_col) = action.cooling_c;
    }
    // One batched forward advances every candidate in lock-step.
    model.predict_batch_into(scratch.states, scratch.next_temps, scratch.batch);

    const env::Disturbance& d = forecast[t];
    for (std::size_t r = 0; r < n; ++r) {
      if (t >= sequences[begin + r].size()) continue;
      const double next_temp = scratch.next_temps[r];
      const bool occupied = weather::is_occupied(scratch.states(r, occ_dim));
      returns[begin + r] +=
          scratch.discounts[r] * env::reward(reward_, next_temp, scratch.actions[r], occupied);
      scratch.discounts[r] *= config_.gamma;

      double* row = scratch.states.row_data(r);
      row[zone_dim] = next_temp;
      schema.apply_disturbance(d, row);
    }
  }
}

void RandomShooting::rollout_returns(const dyn::DynamicsModel& model,
                                     const env::Observation& obs,
                                     const std::vector<env::Disturbance>& forecast,
                                     const std::vector<std::vector<std::size_t>>& sequences,
                                     std::vector<double>& returns) const {
  returns.resize(sequences.size());
  for_slices(engine_.get(), sequences.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    rollout_returns_slice(model, obs, forecast, sequences, begin, end, returns,
                          worker_rollout_scratch());
  });
}

void RandomShooting::draw_sequences(Rng& rng, std::span<std::vector<std::size_t>> out) const {
  assert(out.size() == config_.samples);
  for (auto& sequence : out) {
    sequence.resize(config_.horizon);
    if (rng.bernoulli(config_.persistent_fraction)) {
      sequence.assign(config_.horizon, rng.index(actions_.size()));
    } else {
      for (auto& a : sequence) a = rng.index(actions_.size());
    }
  }
}

std::size_t RandomShooting::optimize(const dyn::DynamicsModel& model,
                                     const env::Observation& obs,
                                     const std::vector<env::Disturbance>& forecast,
                                     Rng& rng) const {
  std::size_t chosen = 0;
  const Decision decision{model, obs, forecast, rng, std::span(&chosen, 1)};
  solve(std::span(&decision, 1), Scoring::kEngine);
  return chosen;
}

void RandomShooting::check_inputs(const dyn::DynamicsModel& model, const env::Observation& obs,
                                  const std::vector<env::Disturbance>& forecast) const {
  if (forecast.size() < config_.horizon) {
    throw std::invalid_argument("RandomShooting: forecast shorter than horizon");
  }
  const env::FeatureSchema& schema = model.schema();
  for (std::size_t i = 0; i < schema.dims(); ++i) {
    if (!std::isfinite(schema.feature_value(obs, i))) {
      throw std::invalid_argument("RandomShooting: non-finite observation feature '" +
                                  schema.at(i).name + "'");
    }
    for (std::size_t k = 0; k < config_.horizon; ++k) {
      if (!std::isfinite(schema.disturbance_value(forecast[k], i))) {
        throw std::invalid_argument("RandomShooting: non-finite forecast feature '" +
                                    schema.at(i).name + "' at step " + std::to_string(k));
      }
    }
  }
}

void RandomShooting::solve(std::span<const Decision> decisions, Scoring scoring) const {
  for (const Decision& d : decisions) check_inputs(d.model, d.obs, d.forecast);
  SolveBuffers& buffers = solve_buffers();

  // Scores `sequences`, where each decision owns `per_repeat` consecutive
  // entries per repeat, in decision order. A slice [begin, end) of the
  // flattened space runs one lock-step batch per decision it overlaps.
  const RolloutEngine* engine = scoring == Scoring::kEngine ? engine_.get() : nullptr;
  const auto score = [&](const std::vector<std::vector<std::size_t>>& sequences,
                         std::size_t per_repeat) {
    buffers.returns.resize(sequences.size());
    for_slices(engine, sequences.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
      std::size_t offset = 0;
      for (const Decision& d : decisions) {
        const std::size_t next = offset + d.chosen.size() * per_repeat;
        if (std::max(begin, offset) < std::min(end, next)) {
          rollout_returns_slice(d.model, d.obs, d.forecast, sequences, std::max(begin, offset),
                                std::min(end, next), buffers.returns, worker_rollout_scratch());
        }
        offset = next;
      }
    });
  };

  // Draw every repeat's candidates in decision, then repeat, order (each
  // decision's own stream, as one optimize() call at a time consumes it),
  // then score them all as one merged batch.
  const std::size_t samples = config_.samples;
  std::size_t repeats = 0;
  for (const Decision& d : decisions) repeats += d.chosen.size();
  buffers.candidates.resize(repeats * samples);
  const std::span<std::vector<std::size_t>> candidates(buffers.candidates);
  std::size_t g = 0;  // global repeat index
  for (const Decision& d : decisions) {
    for (std::size_t r = 0; r < d.chosen.size(); ++r, ++g) {
      draw_sequences(d.rng, candidates.subspan(g * samples, samples));
    }
  }
  score(buffers.candidates, samples);

  // Per-repeat argmax over its own candidates.
  buffers.best_returns.assign(repeats, -std::numeric_limits<double>::infinity());
  buffers.winners.resize(repeats);
  for (g = 0; g < repeats; ++g) {
    buffers.winners[g] = g * samples;
    for (std::size_t s = g * samples; s < (g + 1) * samples; ++s) {
      if (buffers.returns[s] > buffers.best_returns[g]) {
        buffers.best_returns[g] = buffers.returns[s];
        buffers.winners[g] = s;
      }
    }
  }

  if (config_.refine_first_action) {
    // Coordinate-descent pass on the executed action: each repeat's best
    // tail held fixed, its first action enumerated exhaustively — every
    // repeat's |A| sweep scored as a second merged batch.
    const std::size_t n_actions = actions_.size();
    buffers.refine.resize(repeats * n_actions);
    for (g = 0; g < repeats; ++g) {
      const std::vector<std::size_t>& best = buffers.candidates[buffers.winners[g]];
      for (std::size_t a = 0; a < n_actions; ++a) {
        std::vector<std::size_t>& candidate = buffers.refine[g * n_actions + a];
        candidate.assign(best.begin(), best.end());
        candidate.front() = a;
      }
      buffers.winners[g] = best.front();
    }
    score(buffers.refine, n_actions);
    for (g = 0; g < repeats; ++g) {
      for (std::size_t a = 0; a < n_actions; ++a) {
        if (buffers.returns[g * n_actions + a] > buffers.best_returns[g]) {
          buffers.best_returns[g] = buffers.returns[g * n_actions + a];
          buffers.winners[g] = a;
        }
      }
    }
  } else {
    for (std::size_t& w : buffers.winners) w = buffers.candidates[w].front();
  }

  g = 0;
  for (const Decision& d : decisions) {
    for (std::size_t& c : d.chosen) c = buffers.winners[g++];
  }
}

}  // namespace verihvac::control
