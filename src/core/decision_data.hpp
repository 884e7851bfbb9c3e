// Decision-dataset generation — §3.2.1 of the paper.
//
// Two pieces:
//
// 1. AugmentedSampler implements Eq. 5: instead of gridding the schema's
//    input space (the O(n^5) blow-up the paper computes at 444 hours),
//    draw a row of the *historical* data and add element-wise Gaussian
//    noise with std = noise_level * per-dimension std of the data. This
//    concentrates optimizer queries on the input scenarios that actually
//    occur in the city's climate.
//
// 2. DecisionDataGenerator distills the stochastic RS optimizer into
//    deterministic supervision: each sampled input is labelled with the
//    *modal* (most frequent) first action a* of `mc_repeats` (R) optimizer
//    runs — the key stochasticity fix motivated by Fig. 1. The disturbance
//    forecast handed to the optimizer is the historical continuation of
//    the sampled row (the future the building actually saw), falling back
//    to persistence at the episode tail. Labelling stops once no remaining
//    run can change the mode (runs_to_settle), each step solving the
//    fewest runs that could settle it as one RandomShooting::solve batch.
//    The label equals the mode of all R runs: a settled leader is their
//    unique mode, and run j continues the point's one RNG stream with
//    batch-independent scoring, so it chooses what it would among all R.
//    Generation fans out across decision points over the agent's attached
//    control::RolloutEngine (the pipeline wires in the shared engine): a
//    serial pre-pass draws every input, records the agent's RNG state at
//    each point and advances it past all R runs, then each worker labels
//    whole points. The recorded modal actions, and the agent's RNG state
//    afterwards, are bit-identical to labelling one point at a time with
//    action_distribution() at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "control/mbrl_agent.hpp"
#include "dynamics/dataset.hpp"

namespace verihvac::core {

/// One supervised decision example (x = (s, d), a* = modal action index).
struct DecisionRecord {
  std::vector<double> input;
  std::size_t action_index = 0;
};

/// The decision dataset Pi of §3.2.1.
struct DecisionDataset {
  std::vector<DecisionRecord> records;

  std::size_t size() const { return records.size(); }
  bool empty() const { return records.empty(); }
  /// CART-ready views.
  std::vector<std::vector<double>> inputs() const;
  std::vector<int> labels() const;
  /// First `n` records (prefix reuse for the Fig. 6/7 sweeps).
  DecisionDataset prefix(std::size_t n) const;
};

/// Eq. 5 sampler over the historical policy-input distribution.
class AugmentedSampler {
 public:
  /// `historical` rows are policy inputs in `schema`'s layout; noise_level
  /// scales the per-dimension std of the data (paper default 0.01). The
  /// sampler keeps its own copy, so temporaries are fine.
  AugmentedSampler(Matrix historical, double noise_level,
                   env::FeatureSchema schema = env::baseline_schema());

  std::size_t dims() const { return stds_.size(); }
  double noise_level() const { return noise_level_; }
  const std::vector<double>& dimension_stds() const { return stds_; }
  const env::FeatureSchema& schema() const { return schema_; }
  /// The underlying historical rows (used by the H-step bootstrap verifier
  /// to continue disturbance trajectories from a sampled anchor row).
  const Matrix& historical() const { return historical_; }

  /// Draws a historical row index and the noised input vector. Physical
  /// clamps (by feature role) keep humidity in [0,100], hour sin/cos in
  /// [-1,1], and wind/solar/occupancy counts non-negative.
  std::pair<std::vector<double>, std::size_t> sample(Rng& rng) const;

  /// Draws `n` noised inputs (discarding indices) — for the Fig. 3
  /// distribution studies.
  std::vector<std::vector<double>> sample_many(std::size_t n, Rng& rng) const;

 private:
  Matrix historical_;
  double noise_level_;
  env::FeatureSchema schema_;
  std::vector<double> stds_;
};

struct DecisionDataConfig {
  double noise_level = 0.01;  ///< paper §4.1
  std::size_t mc_repeats = 10;
  std::uint64_t seed = 77;
  /// Observation layout of the historical rows (and hence of every
  /// generated decision record).
  env::FeatureSchema schema = env::baseline_schema();
};

class DecisionDataGenerator {
 public:
  /// Borrows the ordered historical dataset (used both as the sampling
  /// distribution and as the source of disturbance continuations).
  DecisionDataGenerator(const dyn::TransitionDataset& historical,
                        DecisionDataConfig config);

  /// Generates `n_points` decision records by modal distillation of
  /// `agent`, sharded across points on the agent's engine (inline without
  /// one). Leaves the agent's RNG exactly where `n_points` calls of
  /// action_distribution(…, mc_repeats) would.
  DecisionDataset generate(control::MbrlAgent& agent, std::size_t n_points);

  /// The forecast used for a sample anchored at historical row `row`
  /// (exposed for tests): rows row+1 .. row+h continue the history.
  std::vector<env::Disturbance> forecast_from(std::size_t row, std::size_t h) const;

  const AugmentedSampler& sampler() const { return sampler_; }

 private:
  const dyn::TransitionDataset* historical_;
  Matrix historical_inputs_;
  DecisionDataConfig config_;
  AugmentedSampler sampler_;
};

/// Modal index of a count histogram (lowest index wins ties).
std::size_t modal_index(const std::vector<std::size_t>& counts);

/// Runs to solve next, of the `remaining`, before the mode of `counts` can be
/// settled: 0 once the leader's count is strictly greater than the runner-up's
/// plus `remaining` (or none remain), else the fewest that, all won by the
/// leader, would settle it.
std::size_t runs_to_settle(const std::vector<std::size_t>& counts, std::size_t remaining);

}  // namespace verihvac::core
