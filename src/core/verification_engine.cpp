#include "core/verification_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "envlib/observation.hpp"
#include "obs/trace.hpp"

namespace verihvac::core {

VerificationEngine::VerificationEngine(std::shared_ptr<const common::TaskPool> pool)
    : pool_(pool ? std::move(pool) : common::TaskPool::shared()),
      probabilistic_runs_(obs::counter("verify_probabilistic_runs_total")),
      interval_runs_(obs::counter("verify_interval_runs_total")),
      reach_runs_(obs::counter("verify_reach_runs_total")) {}

ProbabilisticReport VerificationEngine::verify_probabilistic(
    const DtPolicy& policy, const dyn::DynamicsModel& model, const AugmentedSampler& sampler,
    const VerificationCriteria& criteria, std::size_t n_samples, std::uint64_t seed) const {
  const obs::TraceSpan span("verify.probabilistic", "verify");
  probabilistic_runs_.add(1);
  ProbabilisticReport report;
  if (n_samples == 0) {
    // "Not measured" must not render as 0% safe (same convention as
    // CampaignRow::tube_within_fraction).
    report.safe_probability = std::numeric_limits<double>::quiet_NaN();
    return report;
  }
  const Matrix& historical = sampler.historical();
  const std::size_t occ_dim = sampler.schema().occupancy_index();
  const std::size_t model_dims = model.input_dims();
  const std::size_t heat_col = model.heat_index();
  const std::size_t cool_col = model.cool_index();

  // One byte per sample: failure flags are per-index slots, reduced by a
  // serial scan — order-independent of the worker schedule.
  //
  // Each worker runs in two phases over its slice: (1) draw every sample's
  // input from its own counter-based stream and stage it, with the
  // policy's action, as one row of a model-input batch matrix; (2) advance the
  // whole slice with a single batched forward. The RNG streams are
  // untouched by the batching — the accepted input stays a pure function
  // of (seed, i) — and the batched forward is bit-identical per row to the
  // scalar predict it replaces, so reports match the scalar path exactly.
  std::vector<std::uint8_t> failed(n_samples, 0);
  struct McScratch {
    dyn::BatchScratch batch;
    Matrix inputs;
    std::vector<double> next_temps;
  };
  std::vector<McScratch> scratches(pool_->thread_count());
  pool_->parallel_for(n_samples, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    McScratch& scratch = scratches[worker];
    const std::size_t n = end - begin;
    Matrix& inputs = scratch.inputs;
    inputs.reshape(n, model_dims);  // every element is overwritten
    for (std::size_t i = begin; i < end; ++i) {
      // The whole rejection loop lives inside sample i's own stream: the
      // accepted input is a pure function of (seed, i).
      Rng rng = Rng::stream(seed, i);
      std::vector<double> x;
      for (int attempt = 0;; ++attempt) {
        auto drawn = sample_safe_occupied(sampler, criteria.comfort, rng);
        if (continuation_occupied(historical, drawn.second, 1, occ_dim)) {
          x = std::move(drawn.first);
          break;
        }
        if (attempt >= 10000) {
          throw std::runtime_error(
              "verify_probabilistic: no safe occupied state with occupied continuation");
        }
      }
      const sim::SetpointPair action = policy.decide(x);
      double* row = inputs.row_data(i - begin);
      std::copy(x.begin(), x.end(), row);
      row[heat_col] = action.heating_c;
      row[cool_col] = action.cooling_c;
    }
    model.predict_batch_into(inputs, scratch.next_temps, scratch.batch);
    for (std::size_t r = 0; r < n; ++r) {
      failed[begin + r] = criteria.comfort.contains(scratch.next_temps[r]) ? 0 : 1;
    }
  });

  report.samples = n_samples;
  for (std::uint8_t f : failed) report.failures += f;
  report.safe_probability =
      1.0 - static_cast<double>(report.failures) / static_cast<double>(report.samples);
  return report;
}

IntervalReport VerificationEngine::verify_interval(const DtPolicy& policy,
                                                   const dyn::DynamicsModel& model,
                                                   const VerificationCriteria& criteria,
                                                   const std::optional<Box>& envelope,
                                                   const IntervalVerifyConfig& config) const {
  const obs::TraceSpan span("verify.interval", "verify");
  IntervalReport report;
  const Box scope = envelope ? *envelope : policy.schema().envelope();
  const std::vector<IntervalWorkItem> items =
      interval_work_items(policy, criteria, scope, config, report.leaves_total);

  // Flatten the (leaf × cell) grid: cell c of leaf l lands in the global
  // slot offsets[l] + c, so images are computed in any schedule but folded
  // in the serial path's exact order.
  std::vector<std::size_t> offsets(items.size() + 1, 0);
  for (std::size_t l = 0; l < items.size(); ++l) {
    offsets[l + 1] = offsets[l] + items[l].cells.size();
  }
  const std::size_t total_cells = offsets.back();
  std::vector<Interval> images(total_cells);
  std::vector<IntervalScratch> scratches(pool_->thread_count());
  pool_->parallel_for(total_cells, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    IntervalScratch& scratch = scratches[worker];
    // Locate the leaf containing `begin` once, then walk forward.
    std::size_t leaf_idx = 0;
    while (offsets[leaf_idx + 1] <= begin) ++leaf_idx;
    for (std::size_t g = begin; g < end; ++g) {
      while (offsets[leaf_idx + 1] <= g) ++leaf_idx;
      const Box& cell = items[leaf_idx].cells[g - offsets[leaf_idx]];
      images[g] = interval_next_state(model, cell, scratch);
    }
  });

  std::vector<Interval> leaf_images;
  for (std::size_t l = 0; l < items.size(); ++l) {
    leaf_images.assign(images.begin() + static_cast<std::ptrdiff_t>(offsets[l]),
                       images.begin() + static_cast<std::ptrdiff_t>(offsets[l + 1]));
    ++report.leaves_subject;
    IntervalLeafResult result = fold_interval_leaf(items[l], leaf_images, criteria.comfort);
    if (result.certified) ++report.leaves_certified;
    report.results.push_back(std::move(result));
  }
  interval_runs_.add(1);
  return report;
}

std::vector<ReachabilityResult> VerificationEngine::reach_tubes(
    const DtPolicy& policy, const dyn::DynamicsModel& model,
    const std::vector<std::vector<double>>& initial_states,
    const std::vector<env::Disturbance>& disturbances, std::size_t horizon) const {
  const obs::TraceSpan span("verify.reach_tubes", "verify");
  reach_runs_.add(1);
  std::vector<ReachabilityResult> tubes(initial_states.size());
  std::vector<dyn::PredictScratch> scratches(pool_->thread_count());
  pool_->parallel_for(initial_states.size(),
                      [&](std::size_t worker, std::size_t begin, std::size_t end) {
                        dyn::PredictScratch& scratch = scratches[worker];
                        for (std::size_t i = begin; i < end; ++i) {
                          tubes[i] = reach_tube(policy, model, initial_states[i], disturbances,
                                                horizon, scratch);
                        }
                      });
  return tubes;
}

}  // namespace verihvac::core
