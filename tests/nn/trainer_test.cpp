#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/rng.hpp"

namespace verihvac::nn {
namespace {

/// FNV-1a over the bit patterns of every parameter (flat order).
std::uint64_t parameter_hash(const Mlp& net) {
  common::Fnv1a h;
  for (const double p : net.parameters()) h.f64(p);
  return h.digest();
}

/// Bit-identity lock: the parameter hash and both loss histories must
/// match the recorded values exactly. The constants were recorded once and
/// must never be re-baselined by a refactor of the trainer, the layers or
/// the matrix kernels: they pin the accumulation order of every forward,
/// backward and Adam step.
void expect_locked(const Mlp& net, const TrainingReport& report, std::uint64_t params,
                   const std::vector<double>& train_loss, const std::vector<double>& val_loss) {
  EXPECT_EQ(parameter_hash(net), params);
  EXPECT_EQ(report.train_loss_per_epoch, train_loss);
  EXPECT_EQ(report.val_loss_per_epoch, val_loss);
}

/// Seeded regression data: `rows` x `in` inputs in [-2, 2], `out` smooth
/// nonlinear targets.
void seeded_data(std::size_t rows, std::size_t in, std::size_t out, std::uint64_t seed,
                 Matrix& x, Matrix& y) {
  Rng rng(seed);
  x = Matrix(rows, in);
  y = Matrix(rows, out);
  for (double& v : x.data()) v = rng.uniform(-2.0, 2.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t o = 0; o < out; ++o) {
      double t = 0.1 * static_cast<double>(o);
      for (std::size_t k = 0; k < in; ++k) {
        t += std::sin(x(r, k) * static_cast<double>(k + o + 1)) / static_cast<double>(k + 1);
      }
      y(r, o) = t;
    }
  }
}

TEST(LossTest, MseOfEqualIsZero) {
  Matrix a{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(mse_loss(a, a), 0.0);
}

TEST(LossTest, MseMatchesHandComputation) {
  Matrix pred{{1.0}, {3.0}};
  Matrix target{{0.0}, {1.0}};
  // ((1)^2 + (2)^2) / 2 = 2.5
  EXPECT_DOUBLE_EQ(mse_loss(pred, target), 2.5);
}

TEST(LossTest, GradientPointsTowardTarget) {
  Matrix pred{{2.0}};
  Matrix target{{0.0}};
  mse_gradient_inplace(pred, target);
  EXPECT_DOUBLE_EQ(target(0, 0), 4.0);  // 2*(2-0)/1
}

TEST(TrainerTest, LearnsLinearFunction) {
  // y = 2 x0 - x1 + 0.5: an MLP with ReLU should fit this easily.
  Rng rng(3);
  const std::size_t n = 400;
  Matrix x(n, 2);
  Matrix y(n, 1);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = rng.uniform(-1.0, 1.0);
    x(r, 1) = rng.uniform(-1.0, 1.0);
    y(r, 0) = 2.0 * x(r, 0) - x(r, 1) + 0.5;
  }
  Mlp net({2, 16, 1});
  Rng init(4);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 32;
  cfg.adam.learning_rate = 1e-2;
  const TrainingReport report = train(net, x, y, cfg);
  EXPECT_LT(report.final_train_loss, 1e-3);
  EXPECT_LT(report.final_val_loss, 5e-3);
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  Rng rng(5);
  Matrix x(200, 1);
  Matrix y(200, 1);
  for (std::size_t r = 0; r < 200; ++r) {
    x(r, 0) = rng.uniform(-2.0, 2.0);
    y(r, 0) = std::sin(x(r, 0));
  }
  Mlp net({1, 16, 16, 1});
  Rng init(6);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 100;
  cfg.adam.learning_rate = 5e-3;
  const TrainingReport report = train(net, x, y, cfg);
  ASSERT_EQ(report.train_loss_per_epoch.size(), 100u);
  EXPECT_LT(report.train_loss_per_epoch.back(), report.train_loss_per_epoch.front() * 0.5);
}

TEST(TrainerTest, ReportHistoriesHaveEpochLength) {
  Matrix x(50, 1, 1.0);
  Matrix y(50, 1, 2.0);
  Mlp net({1, 4, 1});
  Rng init(7);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 5;
  const TrainingReport report = train(net, x, y, cfg);
  EXPECT_EQ(report.train_loss_per_epoch.size(), 5u);
  EXPECT_EQ(report.val_loss_per_epoch.size(), 5u);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  Rng rng(9);
  Matrix x(100, 2);
  Matrix y(100, 1);
  for (std::size_t r = 0; r < 100; ++r) {
    x(r, 0) = rng.uniform(-1.0, 1.0);
    x(r, 1) = rng.uniform(-1.0, 1.0);
    y(r, 0) = x(r, 0) * x(r, 1);
  }
  auto run = [&]() {
    Mlp net({2, 8, 1});
    Rng init(10);
    net.init(init);
    TrainerConfig cfg;
    cfg.epochs = 20;
    return train(net, x, y, cfg).final_train_loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(TrainerTest, ZeroValidationFractionUsesTrainLoss) {
  Matrix x(20, 1, 1.0);
  Matrix y(20, 1, 0.0);
  Mlp net({1, 1});
  Rng init(11);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.validation_fraction = 0.0;
  const TrainingReport report = train(net, x, y, cfg);
  EXPECT_EQ(report.val_loss_per_epoch.size(), 3u);
}

TEST(TrainerTest, BitIdentityLockWideNetRaggedBatch) {
  // 203 rows, 20 held out: 183 training rows = 2 full batches of 64 and a
  // ragged 55-row batch every epoch.
  Matrix x;
  Matrix y;
  seeded_data(203, 8, 1, 41, x, y);
  Mlp net({8, 32, 32, 1});
  Rng init(42);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 4;
  const TrainingReport report = train(net, x, y, cfg);
  expect_locked(net, report, 0x03e2f013448ed08full,
                {0x1.b33b9f26ec61fp-1, 0x1.a4307553b159p-1,
                 0x1.912ca6722905dp-1, 0x1.8517ef3d80f65p-1},
                {0x1.b92a439c8223ap-1, 0x1.ac26f856a9cc6p-1,
                 0x1.a01b0e61bb5c5p-1, 0x1.943fbfb5a78b6p-1});
}

TEST(TrainerTest, BitIdentityLockThinTwoOutputHead) {
  // A 2-wide output layer runs the row-blocked thin-head kernel.
  Matrix x;
  Matrix y;
  seeded_data(150, 6, 2, 43, x, y);
  Mlp net({6, 16, 16, 2});
  Rng init(44);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  const TrainingReport report = train(net, x, y, cfg);
  expect_locked(net, report, 0x3f81feb43d1b6e11ull,
                {0x1.cec7c1d533bdap-1, 0x1.af84b53c57b8dp-1,
                 0x1.b9f772046b143p-1, 0x1.af3bb1d3dbab2p-1},
                {0x1.c1b6c31bf65bfp-1, 0x1.be5ba2dd32f4ep-1,
                 0x1.bb2114d723ea9p-1, 0x1.b7cdf2f154e1ap-1});
}

TEST(TrainerTest, BitIdentityLockNoValidationSplit) {
  Matrix x;
  Matrix y;
  seeded_data(100, 8, 1, 45, x, y);
  Mlp net({8, 32, 32, 1});
  Rng init(46);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 48;
  cfg.validation_fraction = 0.0;
  const TrainingReport report = train(net, x, y, cfg);
  expect_locked(net, report, 0x6e44f4d51b0b79e9ull,
                {0x1.0cc07697cf58ap-1, 0x1.2e4d3240417e4p-1,
                 0x1.4a030217f1601p-1},
                {0x1.0cc07697cf58ap-1, 0x1.2e4d3240417e4p-1,
                 0x1.4a030217f1601p-1});
}

TEST(TrainerTest, RejectsEmptyOrMismatched) {
  Mlp net({1, 1});
  TrainerConfig cfg;
  EXPECT_THROW(train(net, Matrix(0, 1), Matrix(0, 1), cfg), std::invalid_argument);
  EXPECT_THROW(train(net, Matrix(3, 1), Matrix(4, 1), cfg), std::invalid_argument);
}

TEST(TrainerTest, RejectsZeroBatchSize) {
  // batch_size 0 used to loop forever (begin += 0).
  Mlp net({1, 1});
  TrainerConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(train(net, Matrix(10, 1), Matrix(10, 1), cfg), std::invalid_argument);
}

TEST(TrainerTest, RejectsValidationFractionOutsideUnitInterval) {
  // A fraction >= 1 used to train on zero rows and report loss 0.
  Mlp net({1, 1});
  const std::vector<double> before = net.parameters();
  for (const double fraction : {1.0, 1.5, -0.1, std::nan("")}) {
    TrainerConfig cfg;
    cfg.validation_fraction = fraction;
    EXPECT_THROW(train(net, Matrix(10, 1), Matrix(10, 1), cfg), std::invalid_argument)
        << "fraction " << fraction;
  }
  EXPECT_EQ(net.parameters(), before);
  TrainerConfig cfg;
  cfg.validation_fraction = 0.95;  // 9 of 10 rows held out: one training row
  cfg.epochs = 1;
  EXPECT_EQ(train(net, Matrix(10, 1), Matrix(10, 1), cfg).train_loss_per_epoch.size(), 1u);
}

}  // namespace
}  // namespace verihvac::nn
