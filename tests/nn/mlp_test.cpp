#include "nn/mlp.hpp"

#include <gtest/gtest.h>

namespace verihvac::nn {
namespace {

TEST(MlpTest, ArchitectureDimensions) {
  Mlp net({8, 32, 32, 1});
  EXPECT_EQ(net.input_dim(), 8u);
  EXPECT_EQ(net.output_dim(), 1u);
  // 8*32+32 + 32*32+32 + 32*1+1 = 288 + 1056 + 33.
  EXPECT_EQ(net.parameter_count(), 1377u);
}

TEST(MlpTest, RejectsDegenerateWidths) {
  EXPECT_THROW(Mlp({5}), std::invalid_argument);
}

TEST(MlpTest, ForwardShape) {
  Mlp net({4, 8, 2});
  Rng rng(1);
  net.init(rng);
  const Matrix out = net.forward(Matrix(7, 4, 0.5));
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 2u);
}

TEST(MlpTest, PredictMatchesBatchedForward) {
  Mlp net({6, 16, 16, 1});
  Rng rng(5);
  net.init(rng);
  std::vector<double> x = {0.1, -0.5, 2.0, 0.0, -1.0, 0.7};
  Matrix batch(1, 6);
  batch.set_row(0, x);
  const Matrix batched = net.forward(batch);

  std::vector<double> out;
  std::vector<double> scratch;
  net.predict(x, out, scratch);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], batched(0, 0), 1e-12);
}

TEST(MlpTest, PredictSingleLayerNetwork) {
  Mlp net({3, 2});
  Rng rng(6);
  net.init(rng);
  std::vector<double> x = {1.0, 2.0, 3.0};
  Matrix batch(1, 3);
  batch.set_row(0, x);
  const Matrix expect = net.forward(batch);
  std::vector<double> out;
  std::vector<double> scratch;
  net.predict(x, out, scratch);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NEAR(out[0], expect(0, 0), 1e-12);
  EXPECT_NEAR(out[1], expect(0, 1), 1e-12);
}

TEST(MlpTest, PredictIsRepeatableWithReusedScratch) {
  Mlp net({6, 16, 1});
  Rng rng(7);
  net.init(rng);
  std::vector<double> out1;
  std::vector<double> out2;
  std::vector<double> scratch;
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  net.predict(x, out1, scratch);
  const double first = out1[0];
  for (int i = 0; i < 10; ++i) net.predict(x, out2, scratch);
  EXPECT_DOUBLE_EQ(out2[0], first);
}

TEST(MlpTest, ForwardIntoBitIdenticalToScalarPredict) {
  // The lock-step rollout engine's core contract: batched inference must
  // reproduce the scalar predict hot path to the last bit, for every row
  // position in the row-blocked thin-layer kernel (kRows = 8 in
  // Linear::forward_into, so sizes below/at/above 8 cover the remainder
  // rows) and the register-tiled wide-layer kernel.
  Mlp net({8, 32, 32, 1});
  Rng rng(21);
  net.init(rng);

  for (std::size_t batch_size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 33u}) {
    Matrix batch(batch_size, 8);
    Rng data_rng(100 + batch_size);
    for (double& v : batch.data()) v = data_rng.uniform(-3.0, 3.0);

    BatchScratch scratch;
    Matrix out;
    net.forward_into(batch, out, scratch);
    ASSERT_EQ(out.rows(), batch_size);
    ASSERT_EQ(out.cols(), 1u);

    std::vector<double> scalar_out;
    std::vector<double> scalar_scratch;
    for (std::size_t r = 0; r < batch_size; ++r) {
      net.predict(batch.row(r), scalar_out, scalar_scratch);
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: exact equality, no ULP slack.
      EXPECT_EQ(out(r, 0), scalar_out[0]) << "batch " << batch_size << " row " << r;
    }
  }
}

TEST(MlpTest, ForwardIntoMatchesTrainingForward) {
  Mlp net({6, 16, 16, 2});
  Rng rng(23);
  net.init(rng);
  Matrix batch(9, 6);
  for (double& v : batch.data()) v = rng.uniform(-2.0, 2.0);

  const Matrix train_path = net.forward(batch);
  BatchScratch scratch;
  Matrix out;
  net.forward_into(batch, out, scratch);
  ASSERT_EQ(out.rows(), train_path.rows());
  ASSERT_EQ(out.cols(), train_path.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], train_path.data()[i], 1e-12);
  }
}

TEST(MlpTest, ForwardIntoReusedScratchIsDeterministic) {
  Mlp net({4, 8, 1});
  Rng rng(29);
  net.init(rng);
  Matrix big(40, 4);
  for (double& v : big.data()) v = rng.uniform(-1.0, 1.0);
  Matrix small(3, 4);
  for (double& v : small.data()) v = rng.uniform(-1.0, 1.0);

  BatchScratch scratch;
  Matrix out_big1;
  Matrix out_small;
  Matrix out_big2;
  net.forward_into(big, out_big1, scratch);
  net.forward_into(small, out_small, scratch);  // shrink: buffers reused
  net.forward_into(big, out_big2, scratch);     // grow back
  ASSERT_EQ(out_big2.rows(), out_big1.rows());
  for (std::size_t i = 0; i < out_big1.size(); ++i) {
    EXPECT_EQ(out_big1.data()[i], out_big2.data()[i]);
  }
}

TEST(MlpTest, BackwardGradientNumerically) {
  // Full-network gradient check on a tiny MLP with L = sum(outputs).
  Mlp net({2, 4, 1});
  Rng rng(11);
  net.init(rng);
  Matrix x{{0.5, -0.3}, {1.0, 0.2}};

  net.zero_grad();
  net.forward(x);
  net.backward(x, Matrix(2, 1, 1.0));

  auto loss = [&x](Mlp& m) {
    const Matrix y = m.forward(x);
    double sum = 0.0;
    for (double v : y.data()) sum += v;
    return sum;
  };

  const auto params = net.parameters();
  constexpr double kEps = 1e-6;
  // Collect analytic gradients layer by layer in the same flat order.
  std::vector<double> analytic;
  for (auto& layer : net.layers()) {
    for (double g : layer.weight_grad().data()) analytic.push_back(g);
    for (double g : layer.bias_grad().data()) analytic.push_back(g);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto plus = params;
    auto minus = params;
    plus[i] += kEps;
    minus[i] -= kEps;
    Mlp copy({2, 4, 1});
    copy.set_parameters(plus);
    const double lp = loss(copy);
    copy.set_parameters(minus);
    const double lm = loss(copy);
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * kEps), 1e-5) << "param " << i;
  }
}

TEST(MlpTest, ParameterRoundTrip) {
  Mlp a({3, 5, 2});
  Rng rng(13);
  a.init(rng);
  Mlp b({3, 5, 2});
  b.set_parameters(a.parameters());
  Matrix x(1, 3);
  x.set_row(0, {0.1, 0.2, 0.3});
  const Matrix ya = a.forward(x);
  const Matrix yb = b.forward(x);
  EXPECT_DOUBLE_EQ(ya(0, 0), yb(0, 0));
  EXPECT_DOUBLE_EQ(ya(0, 1), yb(0, 1));
}

TEST(MlpTest, SetParametersRejectsWrongSize) {
  Mlp net({2, 2});
  EXPECT_THROW(net.set_parameters({1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace verihvac::nn
