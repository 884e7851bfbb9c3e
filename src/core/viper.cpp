#include "core/viper.hpp"

#include <algorithm>
#include <stdexcept>

namespace verihvac::core {

namespace {

/// The calling thread's constant-hold batch, kept warm across calls: inner
/// sequences reuse their capacity, so a steady-state call allocates nothing.
struct HoldBatch {
  std::vector<std::vector<std::size_t>> sequences;
  std::vector<double> returns;
};

HoldBatch& hold_batch() {
  static thread_local HoldBatch batch;
  return batch;
}

}  // namespace

double action_value_spread(const control::MbrlAgent& teacher, const env::Observation& obs,
                           const std::vector<env::Disturbance>& forecast) {
  const control::RandomShooting& rs = teacher.optimizer();
  const std::size_t horizon = rs.config().horizon;
  if (forecast.size() < horizon) {
    throw std::invalid_argument("action_value_spread: forecast shorter than horizon");
  }
  // Q(s, a) for every a as one lock-step batch of constant-hold sequences
  // (a, a, ..., a): the kernel the teacher's labels run on, sharded across
  // the attached engine. Rows are bit-identical to the scalar
  // rollout_return, so the spread is too.
  HoldBatch& batch = hold_batch();
  batch.sequences.resize(teacher.actions().size());
  for (std::size_t a = 0; a < batch.sequences.size(); ++a) {
    batch.sequences[a].assign(horizon, a);
  }
  rs.rollout_returns(teacher.model(), obs, forecast, batch.sequences, batch.returns);
  const auto [worst, best] = std::ranges::minmax(batch.returns);
  return best - worst;
}

ViperResult viper_extract(control::MbrlAgent& teacher, env::BuildingEnv& env,
                          const ViperConfig& config) {
  if (config.iterations == 0) throw std::invalid_argument("viper: iterations must be > 0");
  if (config.steps_per_iteration == 0) {
    throw std::invalid_argument("viper: steps_per_iteration must be > 0");
  }
  if (config.mc_repeats == 0) throw std::invalid_argument("viper: mc_repeats must be > 0");

  Rng rng(config.seed);
  const env::FeatureSchema& schema = teacher.model().schema();
  ViperResult result;
  std::vector<double> weights;  // parallel to result.aggregated.records
  std::shared_ptr<DtPolicy> student;  // null => iteration 0 rolls out the teacher
  double best_match = -1.0;

  for (std::size_t m = 0; m < config.iterations; ++m) {
    // --- Roll out the current student (teacher on the first iteration),
    // labelling every visited state with the teacher's modal action. ---
    DecisionDataset batch;
    std::vector<double> batch_weights;
    double criticality_sum = 0.0;
    env::Observation obs = env.reset();
    for (std::size_t step = 0; step < config.steps_per_iteration; ++step) {
      const auto forecast = env.forecast(teacher.forecast_horizon());
      const auto counts = teacher.action_distribution(obs, forecast, config.mc_repeats);
      DecisionRecord record;
      record.input = schema.to_vector(obs);
      record.action_index = modal_index(counts);
      const double weight =
          config.q_weighted ? action_value_spread(teacher, obs, forecast) : 1.0;
      criticality_sum += weight;
      batch.records.push_back(std::move(record));
      batch_weights.push_back(weight);

      const sim::SetpointPair action =
          student ? student->decide(schema.to_vector(obs))
                  : teacher.actions().action(batch.records.back().action_index);
      const env::StepOutcome outcome = env.step(action);
      obs = outcome.done ? env.reset() : outcome.observation;
    }

    // --- Aggregate. ---
    for (auto& record : batch.records) result.aggregated.records.push_back(record);
    weights.insert(weights.end(), batch_weights.begin(), batch_weights.end());

    // --- Resample D (criticality-weighted with replacement, per VIPER). ---
    const std::size_t n =
        config.resample_size > 0 ? config.resample_size : result.aggregated.size();
    DecisionDataset resampled;
    resampled.records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pick =
          config.q_weighted ? rng.categorical(weights) : rng.index(weights.size());
      resampled.records.push_back(result.aggregated.records[pick]);
    }

    // --- Fit and evaluate against the teacher on the fresh batch. ---
    auto fitted = std::make_shared<DtPolicy>(
        DtPolicy::fit(resampled, teacher.actions(), config.tree, schema));
    std::size_t matches = 0;
    for (const auto& record : batch.records) {
      if (fitted->decide_index(record.input) == record.action_index) ++matches;
    }
    const double match_rate =
        static_cast<double>(matches) / static_cast<double>(batch.records.size());

    ViperIteration diag;
    diag.aggregated_size = result.aggregated.size();
    diag.teacher_match_rate = match_rate;
    diag.mean_criticality = criticality_sum / static_cast<double>(batch.records.size());
    diag.tree_nodes = fitted->tree().node_count();
    result.iterations.push_back(diag);

    if (match_rate > best_match) {
      best_match = match_rate;
      result.best_iteration = m;
      result.policy = fitted;
    }
    student = std::move(fitted);  // DAgger rolls out the *latest* iterate
  }
  return result;
}

}  // namespace verihvac::core
