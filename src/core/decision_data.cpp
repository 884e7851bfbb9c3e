#include "core/decision_data.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace verihvac::core {

std::vector<std::vector<double>> DecisionDataset::inputs() const {
  std::vector<std::vector<double>> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.input);
  return out;
}

std::vector<int> DecisionDataset::labels() const {
  std::vector<int> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(static_cast<int>(r.action_index));
  return out;
}

DecisionDataset DecisionDataset::prefix(std::size_t n) const {
  DecisionDataset out;
  const std::size_t count = std::min(n, records.size());
  out.records.assign(records.begin(), records.begin() + static_cast<long>(count));
  return out;
}

AugmentedSampler::AugmentedSampler(Matrix historical, double noise_level,
                                   env::FeatureSchema schema)
    : historical_(std::move(historical)),
      noise_level_(noise_level),
      schema_(std::move(schema)) {
  if (historical_.rows() == 0) {
    throw std::invalid_argument("AugmentedSampler: empty historical data");
  }
  if (historical_.cols() != schema_.dims()) {
    throw std::invalid_argument("AugmentedSampler: historical rows have " +
                                std::to_string(historical_.cols()) +
                                " dims, schema '" + schema_.name() + "' expects " +
                                std::to_string(schema_.dims()));
  }
  if (noise_level < 0.0) {
    throw std::invalid_argument("AugmentedSampler: negative noise level");
  }
  // Per-dimension population std (Eq. 5's sqrt(sum (x_i - mean)^2 / |X|)).
  const std::size_t dims = historical_.cols();
  stds_.assign(dims, 0.0);
  std::vector<double> means(dims, 0.0);
  for (std::size_t r = 0; r < historical_.rows(); ++r) {
    for (std::size_t c = 0; c < dims; ++c) means[c] += historical_(r, c);
  }
  for (double& m : means) m /= static_cast<double>(historical_.rows());
  for (std::size_t r = 0; r < historical_.rows(); ++r) {
    for (std::size_t c = 0; c < dims; ++c) {
      const double d = historical_(r, c) - means[c];
      stds_[c] += d * d;
    }
  }
  for (double& s : stds_) s = std::sqrt(s / static_cast<double>(historical_.rows()));
}

std::pair<std::vector<double>, std::size_t> AugmentedSampler::sample(Rng& rng) const {
  const std::size_t row = rng.index(historical_.rows());
  std::vector<double> x = historical_.row(row);
  for (std::size_t c = 0; c < x.size(); ++c) {
    x[c] += rng.normal(0.0, noise_level_ * stds_[c]);
  }
  // Physical clamps, by feature role (clamping consumes no randomness, so
  // this cannot perturb the draw stream).
  for (std::size_t c = 0; c < x.size(); ++c) {
    switch (schema_.at(c).role) {
      case env::FeatureRole::kHumidity:
        x[c] = std::clamp(x[c], 0.0, 100.0);
        break;
      case env::FeatureRole::kWind:
      case env::FeatureRole::kSolar:
      case env::FeatureRole::kOccupancy:
      case env::FeatureRole::kOccupancyForecast:
        x[c] = std::max(0.0, x[c]);
        break;
      case env::FeatureRole::kHourSin:
      case env::FeatureRole::kHourCos:
        x[c] = std::clamp(x[c], -1.0, 1.0);
        break;
      default:
        break;
    }
  }
  return {std::move(x), row};
}

std::vector<std::vector<double>> AugmentedSampler::sample_many(std::size_t n, Rng& rng) const {
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample(rng).first);
  return out;
}

DecisionDataGenerator::DecisionDataGenerator(const dyn::TransitionDataset& historical,
                                             DecisionDataConfig config)
    : historical_(&historical),
      historical_inputs_(historical.policy_inputs()),
      config_(config),
      sampler_(historical_inputs_, config.noise_level, config.schema) {
  if (config_.mc_repeats == 0) {
    throw std::invalid_argument("DecisionDataGenerator: mc_repeats must be positive");
  }
}

std::vector<env::Disturbance> DecisionDataGenerator::forecast_from(std::size_t row,
                                                                   std::size_t h) const {
  std::vector<env::Disturbance> forecast;
  forecast.reserve(h);
  for (std::size_t k = 1; k <= h; ++k) {
    const std::size_t idx = std::min(row + k, historical_->size() - 1);
    // Copies every non-state column — including temporal features, which
    // advance through a rollout exactly like the weather does — from the
    // recorded history, so the forecast is the future the building saw.
    forecast.push_back(config_.schema.to_disturbance(historical_->at(idx).input.data()));
  }
  return forecast;
}

DecisionDataset DecisionDataGenerator::generate(control::MbrlAgent& agent,
                                                std::size_t n_points) {
  const control::RandomShooting& rs = agent.optimizer();
  DecisionDataset dataset;
  dataset.records.resize(n_points);
  std::vector<std::size_t> rows(n_points);

  // Serial pre-pass, in the order the one-point-at-a-time loop consumed
  // both streams: draw each point's (x, row) from the sampler's RNG, note
  // the agent's RNG state at the point's first repeat, and advance the
  // agent past the point's candidate draws. Only the 48-byte Rng per point
  // is kept; workers redraw the candidates from it.
  std::vector<Rng> starts(n_points);
  std::vector<std::vector<std::size_t>> skipped(rs.config().samples);
  Rng rng(config_.seed);
  for (std::size_t i = 0; i < n_points; ++i) {
    auto [x, row] = sampler_.sample(rng);
    dataset.records[i].input = std::move(x);
    rows[i] = row;
    starts[i] = agent.rng();
    for (std::size_t r = 0; r < config_.mc_repeats; ++r) rs.draw_sequences(agent.rng(), skipped);
  }

  // Label whole points per worker, scoring inline (a pool worker must not
  // fan out again) until the mode is settled; the solves continue the
  // point's stream, so labels equal the serial loop's at any thread count.
  const std::size_t horizon = agent.forecast_horizon();
  const auto label = [&](std::size_t, std::size_t begin, std::size_t end) {
    std::vector<std::size_t> chosen(config_.mc_repeats);
    std::vector<std::size_t> counts(agent.actions().size());
    for (std::size_t i = begin; i < end; ++i) {
      DecisionRecord& record = dataset.records[i];
      Rng point_rng = starts[i];
      const env::Observation obs = config_.schema.to_observation(record.input);
      const std::vector<env::Disturbance> forecast = forecast_from(rows[i], horizon);
      std::fill(counts.begin(), counts.end(), 0);
      std::size_t k = 0;  // runs solved so far
      while (const std::size_t d = runs_to_settle(counts, config_.mc_repeats - k)) {
        const std::span<std::size_t> runs = std::span(chosen).subspan(k, d);
        const control::RandomShooting::Decision decision{agent.model(), obs, forecast,
                                                         point_rng, runs};
        rs.solve(std::span(&decision, 1), control::RandomShooting::Scoring::kCallingThread);
        for (const std::size_t a : runs) ++counts[a];
        k += d;
      }
      record.action_index = modal_index(counts);
    }
  };
  if (const control::RolloutEngine* engine = rs.engine()) {
    engine->parallel_for(n_points, label);
  } else {
    label(0, 0, n_points);
  }
  return dataset;
}

std::size_t modal_index(const std::vector<std::size_t>& counts) {
  if (counts.empty()) throw std::invalid_argument("modal_index: empty counts");
  return static_cast<std::size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

std::size_t runs_to_settle(const std::vector<std::size_t>& counts, std::size_t remaining) {
  std::size_t leader = 0;
  std::size_t runner_up = 0;
  for (const std::size_t c : counts) {
    runner_up = std::max(runner_up, std::min(leader, c));
    leader = std::max(leader, c);
  }
  if (leader > runner_up + remaining) return 0;
  // d more runs all won by the leader settle it once 2d > runner_up +
  // remaining - leader; fewer cannot, whatever they choose.
  return std::min((runner_up + remaining - leader) / 2 + 1, remaining);
}

}  // namespace verihvac::core
