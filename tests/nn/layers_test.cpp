#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace verihvac::nn {
namespace {

TEST(LinearTest, ForwardMatchesHandComputation) {
  Linear layer(2, 3);
  // W = [[1,2],[3,4],[5,6]], b = [0.1, 0.2, 0.3].
  layer.weight() = Matrix{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  layer.bias() = Matrix{{0.1, 0.2, 0.3}};
  const Matrix out = layer.forward(Matrix{{1.0, 1.0}});
  EXPECT_NEAR(out(0, 0), 3.1, 1e-12);
  EXPECT_NEAR(out(0, 1), 7.2, 1e-12);
  EXPECT_NEAR(out(0, 2), 11.3, 1e-12);
}

TEST(LinearTest, ForwardBatched) {
  Linear layer(2, 1);
  layer.weight() = Matrix{{2.0, -1.0}};
  layer.bias() = Matrix{{0.5}};
  const Matrix out = layer.forward(Matrix{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
  EXPECT_NEAR(out(0, 0), 2.5, 1e-12);
  EXPECT_NEAR(out(1, 0), -0.5, 1e-12);
  EXPECT_NEAR(out(2, 0), 1.5, 1e-12);
}

TEST(LinearTest, BackwardGradientsNumerically) {
  // Central-difference check of dL/dW, dL/db and dL/dX with L = sum(Y).
  Rng rng(3);
  Linear layer(3, 2);
  layer.init(rng);
  Matrix x{{0.3, -0.7, 1.2}, {0.9, 0.1, -0.4}};

  layer.zero_grad();
  layer.forward(x);
  Matrix grad_out(2, 2, 1.0);  // dL/dY = 1
  Matrix grad_in;
  layer.backward(x, grad_out, &grad_in);

  constexpr double kEps = 1e-6;
  auto loss = [&](Linear& l, const Matrix& input) {
    const Matrix y = l.forward(input);
    double sum = 0.0;
    for (double v : y.data()) sum += v;
    return sum;
  };

  // dL/dW numeric.
  for (std::size_t i = 0; i < layer.weight().data().size(); ++i) {
    Linear plus = layer;
    Linear minus = layer;
    plus.weight().data()[i] += kEps;
    minus.weight().data()[i] -= kEps;
    const double numeric = (loss(plus, x) - loss(minus, x)) / (2 * kEps);
    EXPECT_NEAR(layer.weight_grad().data()[i], numeric, 1e-5);
  }
  // dL/db numeric.
  for (std::size_t i = 0; i < layer.bias().data().size(); ++i) {
    Linear plus = layer;
    Linear minus = layer;
    plus.bias().data()[i] += kEps;
    minus.bias().data()[i] -= kEps;
    const double numeric = (loss(plus, x) - loss(minus, x)) / (2 * kEps);
    EXPECT_NEAR(layer.bias_grad().data()[i], numeric, 1e-5);
  }
  // dL/dX numeric.
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    Matrix xp = x;
    Matrix xm = x;
    xp.data()[i] += kEps;
    xm.data()[i] -= kEps;
    Linear copy = layer;
    const double numeric = (loss(copy, xp) - loss(copy, xm)) / (2 * kEps);
    EXPECT_NEAR(grad_in.data()[i], numeric, 1e-5);
  }
}

TEST(LinearTest, GradientsAccumulateUntilZeroed) {
  Linear layer(1, 1);
  layer.weight() = Matrix{{1.0}};
  layer.bias() = Matrix{{0.0}};
  Matrix x{{2.0}};
  Matrix g{{1.0}};
  layer.zero_grad();
  layer.forward(x);
  layer.backward(x, g, nullptr);
  layer.forward(x);
  layer.backward(x, g, nullptr);
  EXPECT_NEAR(layer.weight_grad()(0, 0), 4.0, 1e-12);  // 2 + 2
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight_grad()(0, 0), 0.0);
}

TEST(LinearTest, InitBoundsFollowFanIn) {
  Rng rng(17);
  Linear layer(100, 10);
  layer.init(rng);
  const double bound = std::sqrt(1.0 / 100.0);
  for (double w : layer.weight().data()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
}

TEST(ReluTest, ForwardClampsNegatives) {
  Matrix out{{-1.0, 0.0, 2.5, std::nan("")}};
  Relu::train_inplace(out);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 2.5);
  // Training maps NaN to 0; inference keeps it (see
  // MlpTest.ForwardIntoKeepsNaNThroughHiddenRelu).
  EXPECT_DOUBLE_EQ(out(0, 3), 0.0);
}

TEST(ReluTest, BackwardMasksGradient) {
  Matrix post{{-1.0, 3.0, 0.0}};
  Relu::train_inplace(post);
  Matrix grad{{10.0, 10.0, 10.0}};
  Relu::backward_inplace(post, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(grad(0, 2), 0.0);
}

}  // namespace
}  // namespace verihvac::nn
