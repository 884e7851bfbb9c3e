#include "dynamics/dynamics_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common/fnv1a.hpp"
#include "common/rng.hpp"
#include "dynamics/model_eval.hpp"
#include "envlib/baseline_layout.hpp"

namespace verihvac::dyn {
namespace {

using env::FeatureRole;
using env::testing::baseline_dims;
using env::testing::dim;

/// Synthetic ground-truth plant for fast, controlled tests: a linear
/// one-step thermal response. dT = a*(out - T) + b*(heat_sp - T)_+ etc.
double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const double t = x[dim(FeatureRole::kZoneTemp)];
  const double outdoor = x[dim(FeatureRole::kOutdoorTemp)];
  double dt = 0.08 * (outdoor - t);
  if (t < a.heating_c) dt += 0.35 * std::min(a.heating_c - t, 1.5);
  if (t > a.cooling_c) dt -= 0.30 * std::min(t - a.cooling_c, 1.5);
  dt += 0.01 * x[dim(FeatureRole::kOccupancy)];
  return t + dt;
}

TransitionDataset toy_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TransitionDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Transition t;
    t.input = {rng.uniform(14.0, 28.0), rng.uniform(-10.0, 15.0), rng.uniform(20.0, 90.0),
               rng.uniform(0.0, 8.0),   rng.uniform(0.0, 500.0),  rng.bernoulli(0.5) ? 11.0 : 0.0};
    t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
    t.action.cooling_c =
        static_cast<double>(rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
    t.next_zone_temp = toy_plant(t.input, t.action);
    data.add(t);
  }
  return data;
}

DynamicsModelConfig fast_config() {
  DynamicsModelConfig cfg;
  cfg.hidden = {24, 24};
  cfg.trainer.epochs = 60;
  cfg.trainer.adam.learning_rate = 3e-3;
  return cfg;
}

TEST(DynamicsModelTest, UntrainedPredictThrows) {
  DynamicsModel model;
  PredictScratch scratch;
  EXPECT_THROW(model.predict({20, 0, 50, 3, 0, 0}, sim::SetpointPair{20, 24}, scratch),
               std::logic_error);
}

TEST(DynamicsModelTest, TrainOnEmptyThrows) {
  DynamicsModel model;
  EXPECT_THROW(model.train(TransitionDataset{}), std::invalid_argument);
}

TEST(DynamicsModelTest, LearnsToyPlantAccurately) {
  const TransitionDataset train_data = toy_dataset(2000, 1);
  const TransitionDataset test_data = toy_dataset(300, 2);
  DynamicsModel model(fast_config());
  model.train(train_data);
  const double rmse = one_step_rmse(model, test_data);
  EXPECT_LT(rmse, 0.15);  // one-step error well under the comfort band width
}

TEST(DynamicsModelTest, PredictionRespondsToAction) {
  const TransitionDataset data = toy_dataset(2000, 3);
  DynamicsModel model(fast_config());
  model.train(data);
  const std::vector<double> cold = {16.0, -5.0, 60.0, 3.0, 0.0, 11.0};
  PredictScratch scratch;
  const double heated = model.predict(cold, sim::SetpointPair{23.0, 30.0}, scratch);
  const double setback = model.predict(cold, sim::SetpointPair{15.0, 30.0}, scratch);
  EXPECT_GT(heated, setback + 0.2);
}

TEST(DynamicsModelTest, PredictIsDeterministic) {
  const TransitionDataset data = toy_dataset(500, 4);
  DynamicsModel model(fast_config());
  model.train(data);
  const std::vector<double> x = {20.0, 0.0, 50.0, 2.0, 100.0, 11.0};
  PredictScratch scratch;
  const double p1 = model.predict(x, sim::SetpointPair{21.0, 25.0}, scratch);
  const double p2 = model.predict(x, sim::SetpointPair{21.0, 25.0}, scratch);
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(DynamicsModelTest, PredictBatchIntoBitIdenticalToScalarPredict) {
  const TransitionDataset data = toy_dataset(500, 9);
  DynamicsModel model(fast_config());
  model.train(data);
  const Matrix inputs = data.inputs();

  BatchScratch batch_scratch;
  std::vector<double> batched;
  model.predict_batch_into(inputs, batched, batch_scratch);
  ASSERT_EQ(batched.size(), inputs.rows());

  PredictScratch scalar_scratch;
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    const std::vector<double> row = inputs.row(r);
    const std::vector<double> x(row.begin(), row.begin() + baseline_dims());
    const sim::SetpointPair action{row[model.heat_index()], row[model.cool_index()]};
    // EXPECT_EQ: the batched fused path must match the scalar hot path to
    // the last bit (the rollout-engine determinism contract).
    EXPECT_EQ(batched[r], model.predict(x, action, scalar_scratch)) << "row " << r;
  }
}

TEST(DynamicsModelTest, PredictBatchIntoUntrainedThrows) {
  DynamicsModel model;
  BatchScratch scratch;
  std::vector<double> out;
  EXPECT_THROW(model.predict_batch_into(Matrix(2, model.input_dims()), out, scratch),
               std::logic_error);
}

TEST(DynamicsModelTest, PredictBatchIntoScratchReuseAcrossBatchSizes) {
  const TransitionDataset data = toy_dataset(300, 10);
  DynamicsModel model(fast_config());
  model.train(data);
  const Matrix inputs = data.inputs();

  BatchScratch scratch;
  std::vector<double> full;
  model.predict_batch_into(inputs, full, scratch);

  // Re-run a prefix with the (now larger-capacity) scratch: same bits.
  Matrix prefix(7, model.input_dims());
  for (std::size_t r = 0; r < prefix.rows(); ++r) prefix.set_row(r, inputs.row(r));
  std::vector<double> small;
  model.predict_batch_into(prefix, small, scratch);
  for (std::size_t r = 0; r < prefix.rows(); ++r) EXPECT_EQ(small[r], full[r]);
}

// One const model shared by 4 threads, each predicting through its own
// scratch: every result equals the serial one bit for bit (and TSan sees
// no race, since predict writes nothing but the caller's scratch).
TEST(DynamicsModelTest, ConcurrentScratchPredictsMatchSerial) {
  const TransitionDataset data = toy_dataset(300, 17);
  DynamicsModel trained(fast_config());
  trained.train(data);
  const DynamicsModel& model = trained;

  std::vector<double> serial(data.size());
  PredictScratch serial_scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    serial[i] = model.predict(data.at(i).input, data.at(i).action, serial_scratch);
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> results(kThreads, std::vector<double>(data.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PredictScratch scratch;
      for (std::size_t i = 0; i < data.size(); ++i) {
        results[t][i] = model.predict(data.at(i).input, data.at(i).action, scratch);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(results[t][i], serial[i]) << "thread " << t << " transition " << i;
    }
  }
}

TEST(DynamicsModelTest, TrainingReportShowsConvergence) {
  const TransitionDataset data = toy_dataset(1000, 7);
  DynamicsModel model(fast_config());
  const nn::TrainingReport report = model.train(data);
  EXPECT_LT(report.final_train_loss, report.train_loss_per_epoch.front());
}

TEST(DynamicsModelTest, FineTuneBitIdentityLock) {
  // Train, then fine-tune on a shifted dataset: the fine-tuned weights and
  // the fine-tune loss histories are locked bit for bit (see the trainer
  // locks in tests/nn/trainer_test.cpp; these values must never move).
  DynamicsModelConfig cfg = fast_config();
  cfg.trainer.epochs = 3;
  DynamicsModel model(cfg);
  model.train(toy_dataset(300, 11));
  const nn::TrainingReport report = model.fine_tune(toy_dataset(130, 12), 2, 5);
  common::Fnv1a h;
  for (const double p : model.network().parameters()) h.f64(p);
  EXPECT_EQ(h.digest(), 0xc44f1713c1c86168ull);
  EXPECT_EQ(report.train_loss_per_epoch,
            (std::vector<double>{0x1.637890feb2624p-1, 0x1.4dc3b9329bd1ep-1}));
  EXPECT_EQ(report.val_loss_per_epoch,
            (std::vector<double>{0x1.e4bdb67de30f5p-1, 0x1.c60f58e451381p-1}));
}

/// Every byte of model state a training call could touch.
std::vector<double> model_state(const DynamicsModel& model) {
  std::vector<double> state = model.network().parameters();
  const nn::Normalizer& norm = model.input_normalizer();
  state.insert(state.end(), norm.mean().begin(), norm.mean().end());
  state.insert(state.end(), norm.std().begin(), norm.std().end());
  state.push_back(model.delta_mean());
  state.push_back(model.delta_std());
  return state;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DynamicsModelTest, RejectsNonFiniteTrainingData) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DynamicsModelConfig cfg = fast_config();
  cfg.trainer.epochs = 2;
  DynamicsModel model(cfg);

  TransitionDataset bad_target = toy_dataset(50, 13);
  Transition t = bad_target.at(7);
  t.next_zone_temp = nan;
  bad_target.add(t);
  EXPECT_THROW(model.train(bad_target), std::invalid_argument);
  EXPECT_FALSE(model.trained());

  model.train(toy_dataset(200, 14));
  const std::vector<double> before = model_state(model);

  TransitionDataset bad_input = toy_dataset(50, 15);
  t = bad_input.at(3);
  t.input[dim(FeatureRole::kOutdoorTemp)] = inf;
  bad_input.add(t);
  TransitionDataset bad_action = toy_dataset(50, 16);
  t = bad_action.at(4);
  t.action.cooling_c = nan;
  bad_action.add(t);

  for (const TransitionDataset* bad : {&bad_target, &bad_input, &bad_action}) {
    EXPECT_THROW(model.train(*bad), std::invalid_argument);
    EXPECT_THROW(model.fine_tune(*bad, 2), std::invalid_argument);
    EXPECT_TRUE(bytes_equal(model_state(model), before));
  }
}

TEST(ModelEvalTest, RejectsDegenerateInputs) {
  DynamicsModel model(fast_config());
  model.train(toy_dataset(10, 8));
  EXPECT_THROW(one_step_rmse(model, TransitionDataset{}), std::invalid_argument);
}

}  // namespace
}  // namespace verihvac::dyn
