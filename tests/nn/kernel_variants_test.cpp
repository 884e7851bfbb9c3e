#include "nn/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv1a.hpp"
#include "nn/mlp.hpp"
#include "nn/normalizer.hpp"

namespace verihvac::nn {
namespace {

// Every ISA variant of the batched kernels must compute what the baseline
// variant and the scalar paths compute, to the last bit. Each test runs
// once per compiled variant and is skipped where the CPU lacks its ISA.

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

/// A NaN in the middle row and +inf / -inf in the last, so non-finite
/// values travel the same chains as finite ones.
void add_non_finite_rows(Matrix& batch) {
  const std::size_t rows = batch.rows();
  const std::size_t cols = batch.cols();
  batch(rows / 2, cols - 1) = std::nan("");
  batch(rows - 1, 0) = std::numeric_limits<double>::infinity();
  batch(rows - 1, cols - 1) = -std::numeric_limits<double>::infinity();
}

void expect_same_bits(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bit patterns, not values: no ULP slack, and NaN must match NaN.
    EXPECT_EQ(bits(got.data()[i]), bits(want.data()[i])) << what << " element " << i;
  }
}

const KernelVariant& baseline() { return kernel_variants().front(); }

class KernelVariantTest : public testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!variant().supported()) GTEST_SKIP() << variant().name << " is not supported here";
  }
  const KernelVariant& variant() const { return kernel_variants()[GetParam()]; }
};

TEST_P(KernelVariantTest, InferenceMatchesScalarPredict) {
  // The shapes of MlpTest.ForwardIntoBitIdenticalToScalarPredict: the
  // production net, output tiles with a remainder (40, 20), a two-output
  // and a five-output thin head, and batch sizes around the 8-row blocks.
  const std::vector<std::vector<std::size_t>> shapes = {
      {8, 32, 32, 1}, {8, 40, 20, 1}, {6, 16, 16, 2}, {3, 64, 5}};
  for (const auto& widths : shapes) {
    const Mlp net = make_net(widths, 21 + widths[1]);
    const std::size_t in = widths.front();
    for (std::size_t batch_size : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 193u}) {
      Matrix batch = make_batch(batch_size, in, 100 + batch_size);
      add_non_finite_rows(batch);
      const std::string what = "widths[1] " + std::to_string(widths[1]) + " batch " +
                               std::to_string(batch_size);

      BatchScratch scratch;
      Matrix out;
      variant().infer(net.layers(), batch, out, scratch);
      Matrix want;
      baseline().infer(net.layers(), batch, want, scratch);
      expect_same_bits(out, want, what);

      Matrix scalar(batch_size, net.output_dim());
      std::vector<double> row_out;
      std::vector<double> row_scratch;
      for (std::size_t r = 0; r < batch_size; ++r) {
        net.predict(batch.row(r), row_out, row_scratch);
        scalar.set_row(r, row_out);
      }
      expect_same_bits(out, scalar, what + " vs scalar predict");
    }
  }
}

TEST_P(KernelVariantTest, InferenceDigestIsLocked) {
  // MlpTest.ForwardIntoDigestIsLocked's nets, batch and digest.
  common::Fnv1a digest;
  for (const auto& widths : std::vector<std::vector<std::size_t>>{{8, 32, 32, 1}, {8, 40, 20, 3}}) {
    const Mlp net = make_net(widths, 31);
    BatchScratch scratch;
    Matrix out;
    variant().infer(net.layers(), make_batch(193, 8, 37), out, scratch);
    for (double v : out.data()) digest.f64(v);
  }
  EXPECT_EQ(digest.digest(), 0x0c67e12cb8e706f3ull) << std::hex << digest.digest();
}

/// (in, out) pairs of the training kernels: thin heads (fewer than 8
/// outputs), full 32-wide output tiles, remainder tiles (40, 20) and a
/// layer whose 70 outputs leave 6 over after the backward's 8-wide dW
/// groups.
const std::vector<std::pair<std::size_t, std::size_t>> kLayerShapes = {
    {8, 32}, {32, 32}, {32, 1}, {16, 5}, {8, 40}, {40, 20}, {20, 70}};

TEST_P(KernelVariantTest, TrainingForwardMatchesBaseline) {
  for (const auto& [in, on] : kLayerShapes) {
    Linear layer(in, on);
    Rng rng(41 + on);
    layer.init(rng);
    for (std::size_t batch_size : {1u, 7u, 8u, 9u, 64u, 193u}) {
      Matrix batch = make_batch(batch_size, in, 200 + batch_size);
      add_non_finite_rows(batch);
      Matrix out;
      Matrix wt;
      variant().linear_forward(layer.weight(), layer.bias(), batch, out, wt);
      Matrix want;
      baseline().linear_forward(layer.weight(), layer.bias(), batch, want, wt);
      expect_same_bits(out, want,
                       std::to_string(in) + "->" + std::to_string(on) + " batch " +
                           std::to_string(batch_size));
    }
  }
}

TEST_P(KernelVariantTest, TrainingBackwardMatchesBaseline) {
  for (const auto& [in, on] : kLayerShapes) {
    Linear layer(in, on);
    Rng rng(43 + on);
    layer.init(rng);
    const std::size_t batch_size = 193;
    const Matrix input = make_batch(batch_size, in, 300 + on);
    Matrix grad_output = make_batch(batch_size, on, 400 + on);
    // Zero gradients are skipped terms; a NaN one is not.
    for (std::size_t r = 0; r < batch_size; r += 3) grad_output(r, r % on) = 0.0;
    grad_output(batch_size / 2, 0) = std::nan("");

    Matrix weight_grad[2];
    Matrix bias_grad[2];
    Matrix grad_input[2];
    BackwardScratch scratch;
    const KernelVariant* variants[2] = {&variant(), &baseline()};
    for (int v = 0; v < 2; ++v) {
      weight_grad[v] = Matrix(on, in);
      bias_grad[v] = Matrix(1, on);
      // Twice: the second pass accumulates onto the first's gradients.
      for (int pass = 0; pass < 2; ++pass) {
        variants[v]->linear_backward(layer.weight(), input, grad_output, weight_grad[v],
                                     bias_grad[v], &grad_input[v], scratch);
      }
    }
    const std::string what = std::to_string(in) + "->" + std::to_string(on);
    expect_same_bits(weight_grad[0], weight_grad[1], what + " weight grad");
    expect_same_bits(bias_grad[0], bias_grad[1], what + " bias grad");
    expect_same_bits(grad_input[0], grad_input[1], what + " input grad");
  }
}

/// The branchy backward, kept as the oracle: dW and db in one
/// r-ascending pass that branches over zero dY, and dX in the i-k-j order
/// of the removed Matrix::multiply_into (its k tiles ran ascending, so the
/// chain is the unblocked one), from +0.0 and skipping zero dY.
void reference_backward(const Matrix& weight, const Matrix& input, const Matrix& grad_output,
                        Matrix& weight_grad, Matrix& bias_grad, Matrix* grad_input) {
  const std::size_t in = weight.cols();
  const std::size_t on = weight.rows();
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t o = 0; o < on; ++o) {
      const double g = grad_output(r, o);
      bias_grad(0, o) += g;
      if (g == 0.0) continue;
      for (std::size_t k = 0; k < in; ++k) weight_grad(o, k) += g * input(r, k);
    }
  }
  if (grad_input == nullptr) return;
  grad_input->resize(input.rows(), in);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    for (std::size_t o = 0; o < on; ++o) {
      const double g = grad_output(r, o);
      if (g == 0.0) continue;
      for (std::size_t k = 0; k < in; ++k) (*grad_input)(r, k) += g * weight(o, k);
    }
  }
}

/// Random dY with about half its entries +0.0 or -0.0 (the share the ReLU
/// mask zeroes in training), plus a NaN, a +inf and a -inf.
Matrix sparse_grad(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix grad = make_batch(rows, cols, seed);
  Rng rng(seed + 1);
  for (double& g : grad.data()) {
    if (rng.uniform(0.0, 1.0) < 0.5) g = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
  }
  grad(rows / 2, 0) = std::nan("");
  grad(rows - 1, cols - 1) = std::numeric_limits<double>::infinity();
  grad(0, cols / 2) = -std::numeric_limits<double>::infinity();
  return grad;
}

TEST_P(KernelVariantTest, TrainingBackwardMatchesBranchingOracle) {
  // Input widths 1 and 7 are remainder tiles alone, 9 and 33 add one to a
  // full tile.
  auto shapes = kLayerShapes;
  shapes.insert(shapes.end(), {{1, 32}, {7, 1}, {9, 40}, {33, 70}});
  for (const auto& [in, on] : shapes) {
    Linear layer(in, on);
    Rng rng(47 + in + on);
    layer.init(rng);
    for (std::size_t batch_size : {1u, 7u, 8u, 9u, 64u, 65u, 193u}) {
      Matrix input = make_batch(batch_size, in, 600 + batch_size);
      add_non_finite_rows(input);
      const Matrix grad_output = sparse_grad(batch_size, on, 700 + batch_size + on);

      Matrix weight_grad(on, in);
      Matrix bias_grad(1, on);
      Matrix grad_input(batch_size, in, 5.0);  // every element must be overwritten
      Matrix want_weight_grad(on, in);
      Matrix want_bias_grad(1, on);
      Matrix want_grad_input;
      BackwardScratch scratch;
      // The second and third passes accumulate onto nonzero gradients; the
      // third computes no dX.
      for (Matrix* gi : {&grad_input, &grad_input, static_cast<Matrix*>(nullptr)}) {
        variant().linear_backward(layer.weight(), input, grad_output, weight_grad, bias_grad, gi,
                                  scratch);
        reference_backward(layer.weight(), input, grad_output, want_weight_grad, want_bias_grad,
                           gi != nullptr ? &want_grad_input : nullptr);
      }
      const std::string what = std::to_string(in) + "->" + std::to_string(on) + " batch " +
                               std::to_string(batch_size);
      expect_same_bits(weight_grad, want_weight_grad, what + " weight grad");
      expect_same_bits(bias_grad, want_bias_grad, what + " bias grad");
      expect_same_bits(grad_input, want_grad_input, what + " input grad");
    }
  }
}

TEST_P(KernelVariantTest, StandardizeMatchesScalarTransform) {
  Normalizer norm;
  norm.fit(make_batch(50, 9, 51));
  for (std::size_t batch_size : {1u, 7u, 193u}) {
    Matrix data = make_batch(batch_size, 9, 500 + batch_size);
    add_non_finite_rows(data);
    Matrix out;
    variant().standardize(data, norm.mean(), norm.std(), out);
    Matrix want;
    baseline().standardize(data, norm.mean(), norm.std(), want);
    expect_same_bits(out, want, "batch " + std::to_string(batch_size));

    Matrix scalar(batch_size, 9);
    for (std::size_t r = 0; r < batch_size; ++r) {
      std::vector<double> row = data.row(r);
      norm.transform_inplace(row);
      scalar.set_row(r, row);
    }
    expect_same_bits(out, scalar, "batch " + std::to_string(batch_size) + " vs scalar");
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelVariantTest,
                         testing::Range<std::size_t>(0, kernel_variants().size()),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           std::string name = kernel_variants()[info.param].name;
                           for (char& c : name) c = c == '-' ? '_' : c;
                           return name;
                         });

TEST(KernelVariantsTest, ActiveVariantIsTheWidestSupported) {
  const auto variants = kernel_variants();
  EXPECT_STREQ(variants.front().name, "baseline");
  EXPECT_TRUE(variants.front().supported());
#if defined(__x86_64__)
  ASSERT_EQ(variants.size(), 3u);
  EXPECT_STREQ(variants[1].name, "x86-64-v3");
  EXPECT_STREQ(variants[2].name, "x86-64-v4");
#endif
  std::size_t widest = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (variants[i].supported()) widest = i;
  }
  EXPECT_EQ(&active_kernels(), &variants[widest]);
}

}  // namespace
}  // namespace verihvac::nn
