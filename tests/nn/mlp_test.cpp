#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/fnv1a.hpp"

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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Mlp make_net(const std::vector<std::size_t>& widths, std::uint64_t seed) {
  Mlp net(widths);
  Rng rng(seed);
  net.init(rng);
  return net;
}

Matrix make_batch(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix batch(rows, cols);
  Rng rng(seed);
  for (double& v : batch.data()) v = rng.uniform(-3.0, 3.0);
  return batch;
}

TEST(MlpTest, ForwardIntoBitIdenticalToScalarPredict) {
  // The lock-step rollout engine's core contract: batched inference must
  // reproduce the scalar predict hot path to the last bit. The widths
  // cover the production shape, output tiles with a remainder (40, 20), a
  // two-output and a five-output thin head; the batch sizes cover every
  // position around the 8-row blocks. One row holds a NaN and one holds
  // +inf and -inf, so non-finite values travel the same chains too.
  const std::vector<std::vector<std::size_t>> shapes = {
      {8, 32, 32, 1}, {8, 40, 20, 1}, {6, 16, 16, 2}, {3, 64, 5}};
  for (const auto& widths : shapes) {
    const Mlp net = make_net(widths, 21 + widths[1]);
    const std::size_t in = widths.front();
    for (std::size_t batch_size : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 193u}) {
      Matrix batch = make_batch(batch_size, in, 100 + batch_size);
      batch(batch_size / 2, in - 1) = std::nan("");
      batch(batch_size - 1, 0) = std::numeric_limits<double>::infinity();
      batch(batch_size - 1, in - 1) = -std::numeric_limits<double>::infinity();

      BatchScratch scratch;
      Matrix out;
      net.forward_into(batch, out, scratch);
      ASSERT_EQ(out.rows(), batch_size);
      ASSERT_EQ(out.cols(), net.output_dim());

      std::vector<double> scalar_out;
      std::vector<double> scalar_scratch;
      for (std::size_t r = 0; r < batch_size; ++r) {
        net.predict(batch.row(r), scalar_out, scalar_scratch);
        for (std::size_t o = 0; o < net.output_dim(); ++o) {
          // Bit patterns, not values: no ULP slack, and NaN must match NaN.
          EXPECT_EQ(bits(out(r, o)), bits(scalar_out[o]))
              << "widths[1] " << widths[1] << " batch " << batch_size << " row " << r
              << " output " << o;
        }
      }
    }
  }
}

TEST(MlpTest, ForwardIntoDigestIsLocked) {
  // FNV-1a 64 over the bits of every output of two fixed nets on one
  // fixed 193-row batch. The digest was recorded before the row-blocked
  // inference kernel replaced the layer-at-a-time one, so it pins that
  // the kernel change moved no bit, at whatever ISA the kernels build for.
  common::Fnv1a digest;
  for (const auto& widths : std::vector<std::vector<std::size_t>>{{8, 32, 32, 1}, {8, 40, 20, 3}}) {
    const Mlp net = make_net(widths, 31);
    BatchScratch scratch;
    Matrix out;
    net.forward_into(make_batch(193, 8, 37), out, scratch);
    for (double v : out.data()) digest.f64(v);
  }
  EXPECT_EQ(digest.digest(), 0x0c67e12cb8e706f3ull) << std::hex << digest.digest();
}

TEST(MlpTest, ForwardIntoKeepsNaNThroughHiddenRelu) {
  // Inference ReLU is max(v, 0.0), the scalar predict expression: a NaN
  // pre-activation stays NaN. Training ReLU (v > 0 ? v : 0) maps it to 0,
  // so the training forward of the same net returns the head's bias.
  Mlp net({1, 1, 1});
  net.layers()[0].weight() = Matrix{{1.0}};
  net.layers()[0].bias() = Matrix{{0.0}};
  net.layers()[1].weight() = Matrix{{2.0}};
  net.layers()[1].bias() = Matrix{{0.5}};
  const Matrix batch{{-1.0}, {2.5}, {std::nan("")}};

  BatchScratch scratch;
  Matrix out;
  net.forward_into(batch, out, scratch);
  EXPECT_EQ(out(0, 0), 0.5);  // negative pre-activation clamped to 0
  EXPECT_EQ(out(1, 0), 5.5);
  EXPECT_TRUE(std::isnan(out(2, 0)));
  EXPECT_EQ(net.forward(batch)(2, 0), 0.5);
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
