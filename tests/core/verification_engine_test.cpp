#include "core/verification_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core_test_utils.hpp"

namespace verihvac::core {
namespace {

/// Mirrors tests/control/rollout_engine_test.cpp: the same workload run
/// through pools of different widths must produce bit-identical reports.
class VerificationEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    history_ = new dyn::TransitionDataset(testutil::toy_history(1500, 12));
    dyn::DynamicsModelConfig cfg;
    cfg.hidden = {16};
    cfg.trainer.epochs = 80;
    cfg.trainer.adam.learning_rate = 3e-3;
    model_ = std::make_shared<dyn::DynamicsModel>(cfg);
    model_->train(*history_);
    sampler_ = new AugmentedSampler(history_->policy_inputs(), 0.01);
  }
  static void TearDownTestSuite() {
    delete history_;
    history_ = nullptr;
    delete sampler_;
    sampler_ = nullptr;
    model_.reset();
  }

  static DtPolicy hold_policy() {
    const control::ActionSpace actions;
    const std::size_t hold = actions.nearest_index(sim::SetpointPair{22.0, 23.0});
    const std::size_t setback = actions.nearest_index(sim::SetpointPair{15.0, 30.0});
    DecisionDataset data;
    for (int i = 0; i < 40; ++i) {
      const double temp = 14.0 + 0.3 * i;
      data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 11.0}, hold});
      data.records.push_back({{temp, 0.0, 50.0, 3.0, 100.0, 0.0}, setback});
    }
    return DtPolicy::fit(data, actions);
  }

  static VerificationCriteria winter() {
    VerificationCriteria c;
    c.comfort = env::winter_comfort();
    return c;
  }

  static VerificationEngine engine_with_threads(std::size_t threads) {
    return VerificationEngine(std::make_shared<const common::TaskPool>(
        common::TaskPoolConfig{threads, /*min_parallel_batch=*/1}));
  }

  static dyn::TransitionDataset* history_;
  static AugmentedSampler* sampler_;
  static std::shared_ptr<dyn::DynamicsModel> model_;
};

dyn::TransitionDataset* VerificationEngineTest::history_ = nullptr;
AugmentedSampler* VerificationEngineTest::sampler_ = nullptr;
std::shared_ptr<dyn::DynamicsModel> VerificationEngineTest::model_;

TEST_F(VerificationEngineTest, ProbabilisticReportBitIdenticalAcrossThreadCounts) {
  const DtPolicy policy = hold_policy();
  const auto serial =
      engine_with_threads(1).verify_probabilistic(policy, *model_, *sampler_, winter(), 400, 404);
  for (std::size_t threads : {4u, 8u}) {
    const auto parallel = engine_with_threads(threads).verify_probabilistic(
        policy, *model_, *sampler_, winter(), 400, 404);
    EXPECT_EQ(parallel.samples, serial.samples) << threads << " threads";
    EXPECT_EQ(parallel.failures, serial.failures) << threads << " threads";
    EXPECT_EQ(parallel.safe_probability, serial.safe_probability) << threads << " threads";
  }
}

TEST_F(VerificationEngineTest, ProbabilisticReportReproducibleFromSeed) {
  const DtPolicy policy = hold_policy();
  const VerificationEngine engine = engine_with_threads(4);
  const auto a = engine.verify_probabilistic(policy, *model_, *sampler_, winter(), 300, 7);
  const auto b = engine.verify_probabilistic(policy, *model_, *sampler_, winter(), 300, 7);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.safe_probability, b.safe_probability);
}

TEST_F(VerificationEngineTest, OneStepAdapterIsTheEngineSeededFromTheRng) {
  // verify_probabilistic_one_step is the engine on the shared pool, seeded
  // with the caller's Rng's next draw; every pool reproduces its report.
  const DtPolicy policy = hold_policy();
  Rng rng(404);
  const auto adapter =
      verify_probabilistic_one_step(policy, *model_, *sampler_, winter(), 400, rng);
  ASSERT_EQ(adapter.samples, 400u);
  for (std::size_t threads : {1u, 4u, 8u}) {
    const auto engine = engine_with_threads(threads).verify_probabilistic(
        policy, *model_, *sampler_, winter(), 400, Rng(404).next());
    EXPECT_EQ(engine.samples, adapter.samples) << threads << " threads";
    EXPECT_EQ(engine.failures, adapter.failures) << threads << " threads";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.safe_probability),
              std::bit_cast<std::uint64_t>(adapter.safe_probability))
        << threads << " threads";
  }
}

TEST_F(VerificationEngineTest, ProbabilisticZeroSamplesIsEmptyReport) {
  const DtPolicy policy = hold_policy();
  const auto report = engine_with_threads(4).verify_probabilistic(policy, *model_, *sampler_,
                                                                  winter(), 0, 404);
  EXPECT_EQ(report.samples, 0u);
  EXPECT_EQ(report.failures, 0u);
  // "Not measured" renders as NaN, never as 0% safe.
  EXPECT_TRUE(std::isnan(report.safe_probability));
}

TEST_F(VerificationEngineTest, IntervalReportMatchesSerialVerifier) {
  // A pool of 1 is the serial verifier; pools of 4 and 8 must reproduce
  // its report field by field.
  const DtPolicy policy = hold_policy();
  const auto serial = engine_with_threads(1).verify_interval(policy, *model_, winter());
  ASSERT_GT(serial.results.size(), 0u);
  for (std::size_t threads : {4u, 8u}) {
    const auto parallel = engine_with_threads(threads).verify_interval(policy, *model_, winter());
    ASSERT_EQ(parallel.results.size(), serial.results.size()) << threads << " threads";
    EXPECT_EQ(parallel.leaves_total, serial.leaves_total) << threads << " threads";
    EXPECT_EQ(parallel.leaves_subject, serial.leaves_subject) << threads << " threads";
    EXPECT_EQ(parallel.leaves_certified, serial.leaves_certified) << threads << " threads";
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      const IntervalLeafResult& a = serial.results[i];
      const IntervalLeafResult& b = parallel.results[i];
      EXPECT_EQ(b.leaf, a.leaf) << threads << " threads, result " << i;
      EXPECT_EQ(b.cells, a.cells) << threads << " threads, result " << i;
      EXPECT_EQ(b.cells_certified, a.cells_certified) << threads << " threads, result " << i;
      EXPECT_EQ(b.certified, a.certified) << threads << " threads, result " << i;
      // Bit-identical intervals, not merely close.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.zone_temp.lo),
                std::bit_cast<std::uint64_t>(a.zone_temp.lo));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.zone_temp.hi),
                std::bit_cast<std::uint64_t>(a.zone_temp.hi));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.next_state.lo),
                std::bit_cast<std::uint64_t>(a.next_state.lo));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(b.next_state.hi),
                std::bit_cast<std::uint64_t>(a.next_state.hi));
    }
  }
}

TEST_F(VerificationEngineTest, CertifiedLeafSetIdenticalAcrossThreadCounts) {
  const DtPolicy policy = hold_policy();
  IntervalVerifyConfig fine;
  fine.zone_slice_c = 0.25;
  fine.outdoor_slice_c = 2.0;
  const auto certified_set = [&](std::size_t threads) {
    std::set<int> leaves;
    const auto report =
        engine_with_threads(threads).verify_interval(policy, *model_, winter(), {}, fine);
    for (const auto& r : report.results) {
      if (r.certified) leaves.insert(r.leaf);
    }
    return leaves;
  };
  const auto reference = certified_set(1);
  EXPECT_EQ(certified_set(4), reference);
  EXPECT_EQ(certified_set(8), reference);
}

TEST_F(VerificationEngineTest, ReachTubesMatchSerialReachTube) {
  const DtPolicy policy = hold_policy();
  std::vector<std::vector<double>> starts;
  Rng rng = Rng::stream(11, 0);
  for (int i = 0; i < 24; ++i) {
    starts.push_back(sample_safe_occupied(*sampler_, winter().comfort, rng).first);
  }
  env::Disturbance d;
  d.weather.outdoor_temp_c = -3.0;
  d.weather.humidity_pct = 60.0;
  d.occupants = 11.0;
  const std::vector<env::Disturbance> forecast(10, d);

  const auto tubes = engine_with_threads(8).reach_tubes(policy, *model_, starts, forecast, 10);
  ASSERT_EQ(tubes.size(), starts.size());
  dyn::PredictScratch scratch;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto serial = reach_tube(policy, *model_, starts[i], forecast, 10, scratch);
    ASSERT_EQ(tubes[i].zone_temps.size(), serial.zone_temps.size());
    for (std::size_t k = 0; k < serial.zone_temps.size(); ++k) {
      EXPECT_EQ(tubes[i].zone_temps[k], serial.zone_temps[k]) << "tube " << i << " step " << k;
    }
  }
}

TEST_F(VerificationEngineTest, DefaultsToSharedPool) {
  const VerificationEngine engine;
  EXPECT_EQ(&engine.pool(), common::TaskPool::shared().get());
}

}  // namespace
}  // namespace verihvac::core
