// Independent random-shooting oracle for the bit-identity tests.
//
// One optimizer decision built from public primitives only: draw the
// candidates, score each with the scalar rollout_return, strict-`>`
// argmax, then (with refinement) the first-action sweep over the winner's
// tail. It shares no scoring, argmax or refine code with the batched
// solve, so a test that compares the two compares two implementations.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "control/random_shooting.hpp"

namespace verihvac::control::testing {

inline std::size_t oracle_optimize(const RandomShooting& rs, const dyn::DynamicsModel& model,
                                   const env::Observation& obs,
                                   const std::vector<env::Disturbance>& forecast, Rng& rng,
                                   std::size_t n_actions) {
  std::vector<std::vector<std::size_t>> sequences(rs.config().samples);
  rs.draw_sequences(rng, sequences);
  dyn::PredictScratch scratch;
  std::size_t best = 0;
  double best_return = -std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    const double value = rs.rollout_return(model, obs, forecast, sequences[s], scratch);
    if (value > best_return) {
      best_return = value;
      best = s;
    }
  }
  std::size_t first = sequences[best].front();
  if (rs.config().refine_first_action) {
    for (std::size_t a = 0; a < n_actions; ++a) {
      std::vector<std::size_t> candidate = sequences[best];
      candidate.front() = a;
      const double value = rs.rollout_return(model, obs, forecast, candidate, scratch);
      if (value > best_return) {
        best_return = value;
        first = a;
      }
    }
  }
  return first;
}

}  // namespace verihvac::control::testing
