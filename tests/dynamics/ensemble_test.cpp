#include "dynamics/ensemble.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"

namespace verihvac::dyn {
namespace {

TransitionDataset linear_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TransitionDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Transition t;
    t.input = {rng.uniform(16.0, 26.0), rng.uniform(-5.0, 10.0), 50.0, 3.0, 100.0, 11.0};
    t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
    t.action.cooling_c = 30.0;
    t.next_zone_temp =
        t.input[0] + 0.1 * (t.input[1] - t.input[0]) + 0.05 * (t.action.heating_c - 15.0);
    data.add(t);
  }
  return data;
}

EnsembleConfig fast_ensemble(std::size_t members = 3) {
  EnsembleConfig cfg;
  cfg.members = members;
  cfg.member_config.hidden = {16, 16};
  cfg.member_config.trainer.epochs = 30;
  cfg.member_config.trainer.adam.learning_rate = 3e-3;
  return cfg;
}

TEST(EnsembleTest, RejectsZeroMembers) {
  EnsembleConfig cfg;
  cfg.members = 0;
  EXPECT_THROW(EnsembleDynamics{cfg}, std::invalid_argument);
}

TEST(EnsembleTest, PredictBeforeTrainThrows) {
  EnsembleDynamics ens(fast_ensemble());
  PredictScratch scratch;
  EXPECT_THROW(ens.predict({20, 0, 50, 3, 0, 0}, sim::SetpointPair{20, 24}, scratch),
               std::logic_error);
}

TEST(EnsembleTest, TrainsAllMembers) {
  EnsembleDynamics ens(fast_ensemble(3));
  ens.train(linear_dataset(400, 1));
  EXPECT_TRUE(ens.trained());
  EXPECT_EQ(ens.member_count(), 3u);
  for (std::size_t m = 0; m < 3; ++m) EXPECT_TRUE(ens.member(m).trained());
}

TEST(EnsembleTest, MembersDifferButAgreeInDistribution) {
  EnsembleDynamics ens(fast_ensemble(3));
  ens.train(linear_dataset(600, 2));
  const std::vector<double> x = {20.0, 2.0, 50.0, 3.0, 100.0, 11.0};
  const sim::SetpointPair a{21.0, 30.0};
  PredictScratch scratch;
  const EnsemblePrediction p = ens.predict(x, a, scratch);
  // In-distribution: members agree within a fraction of a degree...
  EXPECT_LT(p.stddev, 0.5);
  // ...but are not bit-identical (bootstrap + different init seeds).
  EXPECT_NE(ens.member(0).predict(x, a, scratch), ens.member(1).predict(x, a, scratch));
  // Mean is inside the member range.
  double lo = 1e9;
  double hi = -1e9;
  for (std::size_t m = 0; m < 3; ++m) {
    const double v = ens.member(m).predict(x, a, scratch);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(p.mean, lo - 1e-9);
  EXPECT_LE(p.mean, hi + 1e-9);
}

TEST(EnsembleTest, UncertaintyHigherOutOfDistribution) {
  EnsembleDynamics ens(fast_ensemble(4));
  ens.train(linear_dataset(600, 3));
  const sim::SetpointPair a{21.0, 30.0};
  PredictScratch scratch;
  // In-distribution query.
  const EnsemblePrediction in_dist = ens.predict({20.0, 2.0, 50.0, 3.0, 100.0, 11.0}, a, scratch);
  // Far out of distribution (zone at 45 degC never occurred).
  const EnsemblePrediction out_dist = ens.predict({45.0, 30.0, 50.0, 3.0, 100.0, 11.0}, a, scratch);
  EXPECT_GT(out_dist.stddev, in_dist.stddev);
}

TEST(EnsembleTest, SingleMemberHasZeroSpread) {
  EnsembleDynamics ens(fast_ensemble(1));
  ens.train(linear_dataset(300, 4));
  PredictScratch scratch;
  const EnsemblePrediction p =
      ens.predict({20.0, 2.0, 50.0, 3.0, 100.0, 11.0}, sim::SetpointPair{21.0, 30.0}, scratch);
  EXPECT_DOUBLE_EQ(p.stddev, 0.0);
}

// One const ensemble shared by 4 threads, each predicting through its own
// scratch: every result equals the serial one bit for bit (and TSan sees
// no race, since predict writes nothing but the caller's scratch).
TEST(EnsembleTest, ConcurrentScratchPredictsMatchSerial) {
  EnsembleDynamics trained(fast_ensemble(3));
  const TransitionDataset data = linear_dataset(200, 6);
  trained.train(data);
  const EnsembleDynamics& ens = trained;

  std::vector<EnsemblePrediction> serial(data.size());
  PredictScratch serial_scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    serial[i] = ens.predict(data.at(i).input, data.at(i).action, serial_scratch);
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<EnsemblePrediction>> results(
      kThreads, std::vector<EnsemblePrediction>(data.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PredictScratch scratch;
      for (std::size_t i = 0; i < data.size(); ++i) {
        results[t][i] = ens.predict(data.at(i).input, data.at(i).action, scratch);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(results[t][i].mean, serial[i].mean) << "thread " << t << " transition " << i;
      EXPECT_EQ(results[t][i].stddev, serial[i].stddev) << "thread " << t << " transition " << i;
    }
  }
}

}  // namespace
}  // namespace verihvac::dyn
