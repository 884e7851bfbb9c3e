#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace verihvac::nn {

namespace {

/// Where the bias enters each output's accumulation chain (see layers.hpp).
enum class BiasOrder { kFirst, kLast };

/// out = input W^T + b. Element (r, o) accumulates w[o][k] * x[r][k] with k
/// ascending, starting from bias[o] (kFirst) or from 0.0 with bias[o] added
/// after the last term (kLast). The vector lanes are always *independent*
/// outputs, so vectorization reorders no chain.
template <BiasOrder kOrder>
void linear_kernel(const Matrix& weight, const Matrix& bias_row, const Matrix& input,
                   Matrix& out, Matrix& wt_scratch) {
  assert(input.cols() == weight.cols());
  assert(&input != &out && "linear forward: output aliases the input");
  const std::size_t n = input.rows();
  const std::size_t in = weight.cols();
  const std::size_t on = weight.rows();
  const double* bias = bias_row.row_data(0);
  const auto start = [bias](std::size_t o) { return kOrder == BiasOrder::kFirst ? bias[o] : 0.0; };
  const auto finish = [bias](double acc, std::size_t o) {
    return kOrder == BiasOrder::kFirst ? acc : acc + bias[o];
  };
  out.reshape(n, on);  // every element is overwritten

  // Thin output layers (e.g. the 32 -> 1 regression head) are pure
  // reductions over k — latency-bound on one FP-add chain per output. Row
  // blocking flips the parallelism axis: eight rows' chains retire
  // together, each in its own k-ascending order, so bits are unchanged.
  if (on < 8) {
    constexpr std::size_t kRows = 8;
    std::size_t r = 0;
    for (; r + kRows <= n; r += kRows) {
      const double* x[kRows];
      for (std::size_t j = 0; j < kRows; ++j) x[j] = input.row_data(r + j);
      for (std::size_t o = 0; o < on; ++o) {
        const double* __restrict wrow = weight.row_data(o);
        double acc[kRows];
        for (std::size_t j = 0; j < kRows; ++j) acc[j] = start(o);
        for (std::size_t k = 0; k < in; ++k) {
          const double wk = wrow[k];
          for (std::size_t j = 0; j < kRows; ++j) acc[j] += wk * x[j][k];
        }
        for (std::size_t j = 0; j < kRows; ++j) out(r + j, o) = finish(acc[j], o);
      }
    }
    for (; r < n; ++r) {
      const double* __restrict x = input.row_data(r);
      double* __restrict y = out.row_data(r);
      for (std::size_t o = 0; o < on; ++o) {
        const double* __restrict wrow = weight.row_data(o);
        double sum = start(o);
        for (std::size_t k = 0; k < in; ++k) sum += wrow[k] * x[k];
        y[o] = finish(sum, o);
      }
    }
    return;
  }

  // Stage W^T (in x out) so the GEMM inner loop is contiguous in both the
  // output row and the weight row. The copy is O(in*on) against the
  // O(n*in*on) product — noise for any real batch.
  wt_scratch.reshape(in, on);
  for (std::size_t o = 0; o < on; ++o) {
    const double* wrow = weight.row_data(o);
    for (std::size_t k = 0; k < in; ++k) wt_scratch(k, o) = wrow[k];
  }

  // i-k-j with register-tiled outputs: each kOTile-wide slice of the
  // output row lives in a fixed-size local accumulator (compile-time
  // bounds, so it stays in vector registers) across the whole k loop, and
  // is stored exactly once. The remainder tile has a runtime width.
  constexpr std::size_t kOTile = 32;
  for (std::size_t r = 0; r < n; ++r) {
    const double* __restrict x = input.row_data(r);
    double* __restrict y = out.row_data(r);
    std::size_t o0 = 0;
    for (; o0 + kOTile <= on; o0 += kOTile) {
      double acc[kOTile];
      for (std::size_t j = 0; j < kOTile; ++j) acc[j] = start(o0 + j);
      for (std::size_t k = 0; k < in; ++k) {
        const double xk = x[k];
        const double* __restrict wrow = wt_scratch.row_data(k) + o0;
        for (std::size_t j = 0; j < kOTile; ++j) acc[j] += xk * wrow[j];
      }
      for (std::size_t j = 0; j < kOTile; ++j) y[o0 + j] = finish(acc[j], o0 + j);
    }
    if (o0 < on) {
      const std::size_t width = on - o0;
      double acc[kOTile];
      for (std::size_t j = 0; j < width; ++j) acc[j] = start(o0 + j);
      for (std::size_t k = 0; k < in; ++k) {
        const double xk = x[k];
        const double* __restrict wrow = wt_scratch.row_data(k) + o0;
        for (std::size_t j = 0; j < width; ++j) acc[j] += xk * wrow[j];
      }
      for (std::size_t j = 0; j < width; ++j) y[o0 + j] = finish(acc[j], o0 + j);
    }
  }
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : weight_(out_features, in_features),
      bias_(1, out_features),
      weight_grad_(out_features, in_features),
      bias_grad_(1, out_features) {}

void Linear::init(Rng& rng) {
  // Kaiming-uniform with gain for ReLU fan-in, as in torch.nn.Linear.
  const double bound = std::sqrt(1.0 / static_cast<double>(in_features()));
  for (double& w : weight_.data()) w = rng.uniform(-bound, bound);
  for (double& b : bias_.data()) b = rng.uniform(-bound, bound);
}

const Matrix& Linear::forward(const Matrix& input, bool relu) {
  linear_kernel<BiasOrder::kLast>(weight_, bias_, input, out_, wt_);
  if (relu) Relu::train_inplace(out_);
  return out_;
}

void Linear::forward_into(const Matrix& input, Matrix& out, Matrix& wt_scratch) const {
  linear_kernel<BiasOrder::kFirst>(weight_, bias_, input, out, wt_scratch);
}

void Linear::backward(const Matrix& input, const Matrix& grad_output, Matrix* grad_input) {
  assert(grad_output.cols() == out_features() && input.cols() == in_features());
  assert(grad_output.rows() == input.rows());
  // dW accumulates in place: element (o, k) adds dY[r][o] * X[r][k] for r
  // ascending, skipping zero dY, across independent k lanes. From
  // zero_grad()'s +0.0 that is the sum a fresh dY^T X product would hold.
  for (std::size_t r = 0; r < input.rows(); ++r) {
    const double* __restrict x = input.row_data(r);
    const double* __restrict dy = grad_output.row_data(r);
    double* __restrict db = bias_grad_.row_data(0);
    for (std::size_t o = 0; o < out_features(); ++o) {
      const double g = dy[o];
      db[o] += g;
      if (g == 0.0) continue;
      double* __restrict dw = weight_grad_.row_data(o);
      for (std::size_t k = 0; k < in_features(); ++k) dw[k] += g * x[k];
    }
  }
  if (grad_input != nullptr) Matrix::multiply_into(grad_output, weight_, *grad_input);
}

void Linear::zero_grad() {
  weight_grad_.fill(0.0);
  bias_grad_.fill(0.0);
}

void Relu::forward_inplace(Matrix& x) {
  for (double& v : x.data()) v = std::max(v, 0.0);
}

void Relu::train_inplace(Matrix& x) {
  for (double& v : x.data()) v = v > 0.0 ? v : 0.0;
}

void Relu::backward_inplace(const Matrix& post, Matrix& grad) {
  assert(grad.rows() == post.rows() && grad.cols() == post.cols());
  for (std::size_t i = 0; i < grad.size(); ++i) grad.data()[i] *= post.data()[i] > 0.0 ? 1.0 : 0.0;
}

}  // namespace verihvac::nn
