#include "control/random_shooting.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace verihvac::control {

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
                                      const std::vector<std::size_t>& action_sequence) const {
  // Warm per-thread scratch keeps the single-sequence path allocation-free
  // (tests and benches loop over this oracle to lock the batch path).
  static thread_local dyn::PredictScratch scratch;
  return rollout_return(model, obs, forecast, action_sequence, scratch);
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
    const bool occupied = x[occ_dim] > 0.5;
    total += discount * env::reward(reward_, next_temp, action, occupied);
    discount *= config_.gamma;

    // Advance the input to step t+1: predicted state + forecast disturbances.
    x[zone_dim] = next_temp;
    schema.apply_disturbance(forecast[t], x.data());
  }
  return total;
}

RolloutScratch& worker_rollout_scratch() {
  static thread_local RolloutScratch scratch;
  return scratch;
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
      const bool occupied = scratch.states(r, occ_dim) > 0.5;
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
  if (engine_ == nullptr || engine_->thread_count() <= 1) {
    rollout_returns_slice(model, obs, forecast, sequences, 0, sequences.size(), returns,
                          worker_rollout_scratch());
    return;
  }
  // The pool shards the batch into contiguous per-worker sub-batches; each
  // worker runs the lock-step pipeline on its slice with its own
  // persistent scratch. Slicing cannot change any candidate's arithmetic
  // (rows are independent through the batched forward), so decisions stay
  // bit-identical across thread counts.
  engine_->parallel_for(sequences.size(),
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          rollout_returns_slice(model, obs, forecast, sequences, begin, end,
                                                returns, worker_rollout_scratch());
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

namespace {

/// The calling thread's optimize_repeats() buffers, kept warm across calls
/// like RolloutScratch (inner sequences reuse their capacity).
struct RepeatBatch {
  std::vector<std::vector<std::size_t>> candidates;
  std::vector<std::vector<std::size_t>> refine;
  std::vector<double> returns;
  std::vector<double> best_returns;
};

RepeatBatch& repeat_batch() {
  static thread_local RepeatBatch batch;
  return batch;
}

}  // namespace

std::size_t RandomShooting::optimize(const dyn::DynamicsModel& model,
                                     const env::Observation& obs,
                                     const std::vector<env::Disturbance>& forecast,
                                     Rng& rng) const {
  std::size_t chosen = 0;
  optimize_repeats(model, obs, forecast, rng, std::span(&chosen, 1), Scoring::kEngine);
  return chosen;
}

void RandomShooting::optimize_repeats(const dyn::DynamicsModel& model,
                                      const env::Observation& obs,
                                      const std::vector<env::Disturbance>& forecast, Rng& rng,
                                      std::span<std::size_t> chosen, Scoring scoring) const {
  if (forecast.size() < config_.horizon) {
    throw std::invalid_argument("RandomShooting: forecast shorter than horizon");
  }
  const auto score = [&](const std::vector<std::vector<std::size_t>>& sequences,
                         std::vector<double>& returns) {
    if (scoring == Scoring::kEngine) {
      rollout_returns(model, obs, forecast, sequences, returns);
    } else {
      returns.resize(sequences.size());
      rollout_returns_slice(model, obs, forecast, sequences, 0, sequences.size(), returns,
                            worker_rollout_scratch());
    }
  };
  const std::size_t repeats = chosen.size();
  const std::size_t samples = config_.samples;
  RepeatBatch& batch = repeat_batch();

  // Draw every call's candidates in call order (the RNG stream of the
  // one-at-a-time loop), then score them all as one merged batch.
  batch.candidates.resize(repeats * samples);
  const std::span<std::vector<std::size_t>> candidates(batch.candidates);
  for (std::size_t r = 0; r < repeats; ++r) {
    draw_sequences(rng, candidates.subspan(r * samples, samples));
  }
  score(batch.candidates, batch.returns);

  // Per-call argmax; chosen[r] holds the winner's index into `candidates`
  // until the refine pass (or the loop below) turns it into an action.
  batch.best_returns.assign(repeats, -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < repeats; ++r) {
    chosen[r] = r * samples;
    for (std::size_t s = r * samples; s < (r + 1) * samples; ++s) {
      if (batch.returns[s] > batch.best_returns[r]) {
        batch.best_returns[r] = batch.returns[s];
        chosen[r] = s;
      }
    }
  }
  if (!config_.refine_first_action) {
    for (std::size_t& c : chosen) c = batch.candidates[c].front();
    return;
  }

  // Coordinate-descent pass on the executed action: each call's best tail
  // held fixed, its first action enumerated exhaustively — all calls' |A|
  // sweeps scored as a second merged batch.
  const std::size_t n_actions = actions_.size();
  batch.refine.resize(repeats * n_actions);
  for (std::size_t r = 0; r < repeats; ++r) {
    const std::vector<std::size_t>& best = batch.candidates[chosen[r]];
    for (std::size_t a = 0; a < n_actions; ++a) {
      std::vector<std::size_t>& candidate = batch.refine[r * n_actions + a];
      candidate.assign(best.begin(), best.end());
      candidate.front() = a;
    }
    chosen[r] = best.front();
  }
  score(batch.refine, batch.returns);
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t a = 0; a < n_actions; ++a) {
      if (batch.returns[r * n_actions + a] > batch.best_returns[r]) {
        batch.best_returns[r] = batch.returns[r * n_actions + a];
        chosen[r] = a;
      }
    }
  }
}

}  // namespace verihvac::control
