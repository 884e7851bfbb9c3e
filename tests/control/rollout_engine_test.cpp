#include "control/rollout_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "control/random_shooting.hpp"
#include "control/rs_oracle.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::control {
namespace {

using env::FeatureRole;
using env::testing::dim;

TEST(RolloutEngineTest, CoversEveryIndexExactlyOnce) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/1});
  for (std::size_t n : {0u, 1u, 3u, 16u, 100u, 1013u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    engine.parallel_for(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(RolloutEngineTest, WorkerIdsStayInRange) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/1});
  std::atomic<bool> out_of_range{false};
  engine.parallel_for(256, [&](std::size_t worker, std::size_t, std::size_t) {
    if (worker >= engine.thread_count()) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(RolloutEngineTest, SmallBatchRunsInlineOnCaller) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/64});
  std::vector<std::size_t> workers;
  engine.parallel_for(8, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    // Inline path: single invocation covering the whole range on worker 0.
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 8u);
    workers.push_back(worker);
  });
  EXPECT_EQ(workers.size(), 1u);
}

TEST(RolloutEngineTest, SingleThreadConfigSpawnsNoWorkers) {
  RolloutEngine engine({/*threads=*/1, /*min_parallel_batch=*/1});
  EXPECT_EQ(engine.thread_count(), 1u);
  int calls = 0;
  engine.parallel_for(32, [&](std::size_t, std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(end - begin, 32u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(RolloutEngineTest, PropagatesExceptionsFromWorkers) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/1});
  EXPECT_THROW(
      engine.parallel_for(128,
                          [&](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 0) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must survive a throwing batch and keep serving work.
  std::atomic<std::size_t> covered{0};
  engine.parallel_for(64, [&](std::size_t, std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(RolloutEngineTest, SharedEngineIsReused) {
  const auto a = RolloutEngine::shared();
  const auto b = RolloutEngine::shared();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(a->thread_count(), 1u);
}

/// Fixture with a tiny trained dynamics model.
class ParallelRolloutTest : public ::testing::Test {
 protected:
  static double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
    const double t = x[dim(FeatureRole::kZoneTemp)];
    double dt = 0.08 * (x[dim(FeatureRole::kOutdoorTemp)] - t);
    if (t < a.heating_c) dt += 0.4 * std::min(a.heating_c - t, 1.2);
    if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
    return t + dt;
  }

  static const dyn::DynamicsModel& model() {
    static dyn::DynamicsModel* instance = [] {
      Rng rng(1);
      dyn::TransitionDataset data;
      for (int i = 0; i < 1500; ++i) {
        dyn::Transition t;
        t.input = {rng.uniform(14.0, 28.0), rng.uniform(-8.0, 12.0), 50.0, 3.0,
                   rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
        t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
        t.action.cooling_c = static_cast<double>(
            rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
        t.next_zone_temp = toy_plant(t.input, t.action);
        data.add(t);
      }
      dyn::DynamicsModelConfig cfg;
      cfg.hidden = {16, 16};
      cfg.trainer.epochs = 30;
      cfg.trainer.adam.learning_rate = 3e-3;
      auto* m = new dyn::DynamicsModel(cfg);
      m->train(data);
      return m;
    }();
    return *instance;
  }

  static env::Observation cold_occupied() {
    env::Observation obs;
    obs.zone_temp_c = 17.5;
    obs.weather.outdoor_temp_c = -5.0;
    obs.weather.humidity_pct = 50.0;
    obs.weather.wind_mps = 3.0;
    obs.occupants = 11.0;
    return obs;
  }

  static std::vector<env::Disturbance> persistence_forecast(const env::Observation& obs,
                                                            std::size_t h) {
    env::Disturbance d;
    d.weather = obs.weather;
    d.occupants = obs.occupants;
    return std::vector<env::Disturbance>(h, d);
  }

  static std::shared_ptr<const RolloutEngine> four_threads() {
    static const auto engine = std::make_shared<const RolloutEngine>(
        RolloutEngineConfig{/*threads=*/4, /*min_parallel_batch=*/1});
    return engine;
  }

  /// Engines for the VERI_HVAC_THREADS=1/4/8 identity sweeps.
  static std::shared_ptr<const RolloutEngine> engine_with_threads(std::size_t threads) {
    return std::make_shared<const RolloutEngine>(
        RolloutEngineConfig{threads, /*min_parallel_batch=*/1});
  }
};

TEST_F(ParallelRolloutTest, BatchReturnsMatchSerialReturns) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);

  Rng rng(7);
  std::vector<std::vector<std::size_t>> sequences(40, std::vector<std::size_t>(6));
  for (auto& seq : sequences) {
    for (auto& a : seq) a = rng.index(actions.size());
  }

  std::vector<double> serial(sequences.size());
  dyn::PredictScratch scratch;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    serial[s] = rs.rollout_return(model(), obs, forecast, sequences[s], scratch);
  }

  rs.set_engine(four_threads());
  std::vector<double> parallel;
  rs.rollout_returns(model(), obs, forecast, sequences, parallel);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_DOUBLE_EQ(parallel[s], serial[s]) << "sequence " << s;
  }
}

TEST_F(ParallelRolloutTest, BatchedSliceBitIdenticalToScalarRolloutForAnySlicing) {
  // The lock-step kernel's per-candidate arithmetic must be independent of
  // how the batch is sliced into sub-batches — that is what makes the
  // sharded path thread-count invariant.
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 5, 0.97}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 5);

  Rng rng(31);
  std::vector<std::vector<std::size_t>> sequences(23, std::vector<std::size_t>(5));
  for (auto& seq : sequences) {
    for (auto& a : seq) a = rng.index(actions.size());
  }

  std::vector<double> scalar(sequences.size());
  dyn::PredictScratch predict_scratch;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    scalar[s] = rs.rollout_return(model(), obs, forecast, sequences[s], predict_scratch);
  }

  for (std::size_t slice : {1u, 4u, 7u, 23u}) {
    std::vector<double> batched(sequences.size(), -1.0);
    RolloutScratch scratch;
    for (std::size_t begin = 0; begin < sequences.size(); begin += slice) {
      const std::size_t end = std::min(begin + slice, sequences.size());
      rs.rollout_returns_slice(model(), obs, forecast, sequences, begin, end, batched, scratch);
    }
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      EXPECT_EQ(batched[s], scalar[s]) << "slice " << slice << " sequence " << s;
    }
  }
}

TEST_F(ParallelRolloutTest, BatchedReturnsHandleRaggedSequences) {
  // Mixed-length candidate sets: shorter candidates must stop accumulating
  // reward at their own horizon while longer ones keep going.
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 8, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 8);

  Rng rng(37);
  std::vector<std::vector<std::size_t>> sequences;
  for (std::size_t len : {8u, 1u, 5u, 0u, 8u, 3u}) {
    std::vector<std::size_t> seq(len);
    for (auto& a : seq) a = rng.index(actions.size());
    sequences.push_back(seq);
  }

  std::vector<double> batched;
  rs.rollout_returns(model(), obs, forecast, sequences, batched);
  ASSERT_EQ(batched.size(), sequences.size());
  dyn::PredictScratch scratch;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    EXPECT_EQ(batched[s], rs.rollout_return(model(), obs, forecast, sequences[s], scratch))
        << "sequence " << s << " (length " << sequences[s].size() << ")";
  }
  EXPECT_EQ(batched[3], 0.0);  // empty sequence scores zero
}

TEST_F(ParallelRolloutTest, ReturnsBitIdenticalAcrossOneFourEightThreads) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);

  Rng rng(41);
  std::vector<std::vector<std::size_t>> sequences(60, std::vector<std::size_t>(6));
  for (auto& seq : sequences) {
    for (auto& a : seq) a = rng.index(actions.size());
  }

  std::vector<double> scalar(sequences.size());
  dyn::PredictScratch scratch;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    scalar[s] = rs.rollout_return(model(), obs, forecast, sequences[s], scratch);
  }
  for (std::size_t threads : {1u, 4u, 8u}) {
    RandomShooting batched_rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
    batched_rs.set_engine(engine_with_threads(threads));
    std::vector<double> batched;
    batched_rs.rollout_returns(model(), obs, forecast, sequences, batched);
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      EXPECT_EQ(batched[s], scalar[s]) << threads << " threads, sequence " << s;
    }
  }
}

TEST_F(ParallelRolloutTest, RandomShootingDecisionIdenticalAcrossThreadCounts) {
  const ActionSpace actions;
  RandomShootingConfig cfg;
  cfg.samples = 96;
  cfg.horizon = 6;
  cfg.refine_first_action = true;
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);

  RandomShooting serial(cfg, actions, env::RewardConfig{});
  for (std::size_t threads : {1u, 4u, 8u}) {
    RandomShooting parallel(cfg, actions, env::RewardConfig{});
    parallel.set_engine(engine_with_threads(threads));
    for (std::uint64_t seed : {3u, 17u, 91u}) {
      Rng rng_a(seed);
      Rng rng_b(seed);
      EXPECT_EQ(serial.optimize(model(), obs, forecast, rng_a),
                parallel.optimize(model(), obs, forecast, rng_b))
          << threads << " threads, seed " << seed;
    }
  }
}

// One solve() over decisions with different inputs and repeat counts
// equals the scalar oracle run one repeat at a time on each decision's own
// stream, and leaves every stream where that loop leaves it, at every pool
// size and with refinement off and on.
TEST_F(ParallelRolloutTest, SolveMatchesScalarOracleForMixedDecisions) {
  const ActionSpace actions;
  const std::array<double, 3> zone_temps = {16.0, 19.5, 23.0};
  const std::array<std::size_t, 3> repeats = {1, 3, 2};
  const std::array<std::uint64_t, 3> seeds = {5, 41, 77};
  std::vector<env::Observation> observations;
  for (const double t : zone_temps) {
    observations.push_back(cold_occupied());
    observations.back().zone_temp_c = t;
  }
  const auto forecast = persistence_forecast(cold_occupied(), 6);

  for (const bool refine : {false, true}) {
    RandomShootingConfig cfg;
    cfg.samples = 40;
    cfg.horizon = 6;
    cfg.refine_first_action = refine;
    const RandomShooting oracle_rs(cfg, actions, env::RewardConfig{});
    std::vector<std::vector<std::size_t>> expected(zone_temps.size());
    std::vector<Rng> oracle_rngs;
    for (std::size_t d = 0; d < zone_temps.size(); ++d) {
      oracle_rngs.emplace_back(seeds[d]);
      for (std::size_t r = 0; r < repeats[d]; ++r) {
        expected[d].push_back(testing::oracle_optimize(oracle_rs, model(), observations[d],
                                                       forecast, oracle_rngs[d],
                                                       actions.size()));
      }
    }

    for (const std::size_t threads : {1u, 4u, 8u}) {
      RandomShooting rs(cfg, actions, env::RewardConfig{});
      rs.set_engine(engine_with_threads(threads));
      std::vector<Rng> rngs;
      std::vector<std::vector<std::size_t>> chosen;
      for (std::size_t d = 0; d < zone_temps.size(); ++d) {
        rngs.emplace_back(seeds[d]);
        chosen.emplace_back(repeats[d]);
      }
      std::vector<RandomShooting::Decision> decisions;
      for (std::size_t d = 0; d < zone_temps.size(); ++d) {
        decisions.push_back({model(), observations[d], forecast, rngs[d], chosen[d]});
      }
      rs.solve(decisions, RandomShooting::Scoring::kEngine);
      for (std::size_t d = 0; d < zone_temps.size(); ++d) {
        EXPECT_EQ(chosen[d], expected[d])
            << "decision " << d << " at " << threads << " threads, refine " << refine;
        Rng oracle_next = oracle_rngs[d];
        EXPECT_EQ(rngs[d](), oracle_next()) << "decision " << d << " stream diverged";
      }
    }
  }
}

// A non-finite input must not be decided: the comfort penalty of a NaN
// temperature is 0, so the argmax would minimise energy alone and give a
// cold occupied zone a setback. The input check throws before any draw.
TEST_F(ParallelRolloutTest, NonFiniteInputsThrowBeforeAnyDraw) {
  const ActionSpace actions;
  RandomShootingConfig cfg;
  cfg.samples = 16;
  cfg.horizon = 4;
  RandomShooting rs(cfg, actions, env::RewardConfig{});
  rs.set_engine(four_threads());
  const auto forecast = persistence_forecast(cold_occupied(), 4);

  const auto expect_rejected = [&](const env::Observation& obs,
                                   const std::vector<env::Disturbance>& f) {
    Rng rng(13);
    Rng untouched(13);
    EXPECT_THROW(rs.optimize(model(), obs, f, rng), std::invalid_argument);
    EXPECT_EQ(rng(), untouched());
  };
  env::Observation nan_zone = cold_occupied();
  nan_zone.zone_temp_c = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(nan_zone, forecast);

  std::vector<env::Disturbance> inf_outdoor = forecast;
  inf_outdoor[2].weather.outdoor_temp_c = std::numeric_limits<double>::infinity();
  expect_rejected(cold_occupied(), inf_outdoor);
  expect_rejected(cold_occupied(), persistence_forecast(cold_occupied(), 3));

  // One bad decision rejects the whole solve before the good one draws.
  Rng good_rng(7);
  Rng bad_rng(8);
  Rng good_untouched(7);
  std::size_t good_chosen = 99;
  std::size_t bad_chosen = 99;
  const env::Observation good_obs = cold_occupied();
  const std::vector<RandomShooting::Decision> decisions = {
      {model(), good_obs, forecast, good_rng, std::span(&good_chosen, 1)},
      {model(), nan_zone, forecast, bad_rng, std::span(&bad_chosen, 1)}};
  EXPECT_THROW(rs.solve(decisions, RandomShooting::Scoring::kEngine), std::invalid_argument);
  EXPECT_EQ(good_chosen, 99u);
  EXPECT_EQ(bad_chosen, 99u);
  EXPECT_EQ(good_rng(), good_untouched());
}

}  // namespace
}  // namespace verihvac::control
