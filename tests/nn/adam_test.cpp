#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/kernels.hpp"

namespace verihvac::nn {
namespace {

TEST(AdamTest, SingleStepMagnitudeIsLearningRate) {
  // With a fresh optimizer, the bias-corrected first step has magnitude
  // ~= lr * sign(grad) regardless of gradient scale.
  Mlp net({1, 1});
  net.set_parameters({1.0, 0.0});  // w=1, b=0
  AdamConfig cfg;
  cfg.learning_rate = 0.01;
  cfg.weight_decay = 0.0;
  Adam adam(net, cfg);

  net.zero_grad();
  net.layers()[0].weight_grad()(0, 0) = 123.0;  // large positive gradient
  adam.step();
  EXPECT_NEAR(net.parameters()[0], 1.0 - 0.01, 1e-6);
}

TEST(AdamTest, DescendsQuadraticBowl) {
  // Minimize (w - 3)^2 with gradient 2(w - 3).
  Mlp net({1, 1});
  net.set_parameters({0.0, 0.0});
  AdamConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.weight_decay = 0.0;
  Adam adam(net, cfg);
  for (int i = 0; i < 300; ++i) {
    net.zero_grad();
    const double w = net.parameters()[0];
    net.layers()[0].weight_grad()(0, 0) = 2.0 * (w - 3.0);
    adam.step();
  }
  EXPECT_NEAR(net.parameters()[0], 3.0, 0.05);
}

TEST(AdamTest, WeightDecayShrinksParameters) {
  Mlp net({1, 1});
  net.set_parameters({5.0, 0.0});
  AdamConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.weight_decay = 1.0;  // exaggerated to observe the effect
  Adam adam(net, cfg);
  for (int i = 0; i < 200; ++i) {
    net.zero_grad();  // zero task gradient: only decay acts
    adam.step();
  }
  EXPECT_LT(std::abs(net.parameters()[0]), 0.5);
}

TEST(AdamTest, StepCounterAdvances) {
  Mlp net({1, 1});
  Adam adam(net);
  EXPECT_EQ(adam.steps_taken(), 0u);
  net.zero_grad();
  adam.step();
  adam.step();
  EXPECT_EQ(adam.steps_taken(), 2u);
}

TEST(AdamTest, DefaultConfigMatchesPaper) {
  const AdamConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.learning_rate, 1e-3);
  EXPECT_DOUBLE_EQ(cfg.weight_decay, 1e-5);
}

/// Adam::step before its parameters became per-matrix blocks, kept as the
/// oracle: one scalar loop over every parameter in Mlp::parameters() order.
struct ReferenceAdam {
  AdamConfig config;
  std::vector<double> m;
  std::vector<double> v;
  std::size_t t = 0;

  void step(std::vector<double>& params, const std::vector<double>& grads) {
    m.resize(params.size(), 0.0);
    v.resize(params.size(), 0.0);
    ++t;
    const double bias_correction1 = 1.0 - std::pow(config.beta1, static_cast<double>(t));
    const double bias_correction2 = 1.0 - std::pow(config.beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      double g = grads[i] + config.weight_decay * params[i];
      m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * g;
      v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * g * g;
      const double m_hat = m[i] / bias_correction1;
      const double v_hat = v[i] / bias_correction2;
      params[i] -= config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
    }
  }
};

/// Step `step`'s gradients: every fifth step all zero (weight decay alone
/// acts), otherwise random with about a third exact zeros.
void fill_grads(Mlp& net, int step, Rng& rng) {
  for (auto& layer : net.layers()) {
    for (Matrix* grad : {&layer.weight_grad(), &layer.bias_grad()}) {
      for (double& g : grad->data()) {
        g = step % 5 == 4 || rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : rng.uniform(-2.0, 2.0);
      }
    }
  }
}

/// The gradients in Mlp::parameters() order.
std::vector<double> flat_grads(Mlp& net) {
  std::vector<double> flat;
  for (auto& layer : net.layers()) {
    flat.insert(flat.end(), layer.weight_grad().data().begin(), layer.weight_grad().data().end());
    flat.insert(flat.end(), layer.bias_grad().data().begin(), layer.bias_grad().data().end());
  }
  return flat;
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << " element " << i;
  }
}

constexpr int kOracleSteps = 50;

Mlp make_net() {
  Mlp net({8, 32, 32, 1});
  Rng rng(5);
  net.init(rng);
  return net;
}

class AdamVariantTest : public testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!variant().supported()) GTEST_SKIP() << variant().name << " is not supported here";
  }
  const KernelVariant& variant() const { return kernel_variants()[GetParam()]; }
};

TEST_P(AdamVariantTest, UpdateMatchesScalarLoopBitForBit) {
  // Each parameter matrix is one block (256, 32, 1024, 32, 32 and 1
  // elements), so full vectors and every remainder width run.
  Mlp net = make_net();
  std::vector<double> want = net.parameters();
  ReferenceAdam reference;
  const std::size_t size = want.size();
  std::vector<double> m(size, 0.0);
  std::vector<double> v(size, 0.0);
  Rng rng(9);
  for (int step = 0; step < kOracleSteps; ++step) {
    fill_grads(net, step, rng);
    reference.step(want, flat_grads(net));
    const double t = static_cast<double>(step + 1);
    const double bias_correction1 = 1.0 - std::pow(reference.config.beta1, t);
    const double bias_correction2 = 1.0 - std::pow(reference.config.beta2, t);
    std::size_t offset = 0;
    for (auto& layer : net.layers()) {
      for (auto [param, grad] : {std::pair{&layer.weight(), &layer.weight_grad()},
                                 std::pair{&layer.bias(), &layer.bias_grad()}}) {
        variant().adam_update(reference.config, bias_correction1, bias_correction2,
                              param->data().data(), grad->data().data(), m.data() + offset,
                              v.data() + offset, param->size());
        offset += param->size();
      }
    }
  }
  expect_same_bits(net.parameters(), want, "parameters");
  expect_same_bits(m, reference.m, "first moment");
  expect_same_bits(v, reference.v, "second moment");
}

INSTANTIATE_TEST_SUITE_P(AllVariants, AdamVariantTest,
                         testing::Range<std::size_t>(0, kernel_variants().size()),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           std::string name = kernel_variants()[info.param].name;
                           for (char& c : name) c = c == '-' ? '_' : c;
                           return name;
                         });

TEST(AdamTest, StepMatchesScalarLoopBitForBit) {
  // Adam itself, on the active variant: its blocks walk the moments in
  // Mlp::parameters() order.
  Mlp net = make_net();
  std::vector<double> want = net.parameters();
  ReferenceAdam reference;
  Adam adam(net);
  Rng rng(11);
  for (int step = 0; step < kOracleSteps; ++step) {
    fill_grads(net, step, rng);
    reference.step(want, flat_grads(net));
    adam.step();
  }
  expect_same_bits(net.parameters(), want, "parameters");
  expect_same_bits(adam.first_moment(), reference.m, "first moment");
  expect_same_bits(adam.second_moment(), reference.v, "second moment");
}

}  // namespace
}  // namespace verihvac::nn
