// Neural-network layers (PyTorch substitute, regression-scale).
//
// The paper's thermal dynamics model is a small fully-connected MLP; this
// module implements exactly the pieces needed to train one: a Linear layer
// with explicit forward/backward, and ReLU activation. Batches are dense
// row-major matrices (rows = samples).
//
// Two kernels, two accumulation orders. Each output of Y = X W^T + b is one
// FP-add chain over k ascending; only where the bias enters it differs.
// Batched inference (infer_into, behind Mlp::forward_into) runs the whole
// layer stack per 8-row block and adds the bias first, the order of the
// scalar Mlp::predict, so batched and scalar inference agree bit for bit.
// Training (Linear::forward) runs one layer per pass, starts from 0.0 and
// adds the bias last, the order every trained weight was produced in:
// changing it would move every trained weight and golden value.
// The kernels themselves live in nn/kernels.cpp, one copy per ISA level.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace verihvac::nn {

/// Linear::backward's compaction buffers: one row or column of dY as its
/// nonzero (coefficient, operand row) terms. Sized by the larger of the
/// batch and the layer's outputs.
struct BackwardScratch {
  std::vector<double> coeff;
  std::vector<const double*> row;
};

/// Fully-connected layer: Y = X W^T + b, with gradient accumulation.
/// Training (forward/backward) writes into buffers the layer owns and is
/// not thread-safe; infer_into reads a const layer and touches no state.
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  std::size_t in_features() const { return weight_.cols(); }
  std::size_t out_features() const { return weight_.rows(); }

  /// Kaiming-uniform initialization (the PyTorch default for Linear).
  void init(Rng& rng);

  /// Training forward in the bias-last order, then the training ReLU if
  /// `relu`, into the layer's own buffer (see output()).
  const Matrix& forward(const Matrix& input, bool relu = false);
  /// The last forward()'s result, valid until the next forward().
  const Matrix& output() const { return out_; }
  /// Backward for the batch `input` of the last forward(): dW += dY^T X,
  /// db += column sums of dY, and dL/dX = dY W into `grad_input` if given.
  void backward(const Matrix& input, const Matrix& grad_output, Matrix* grad_input);

  void zero_grad();
  /// Frees forward()'s and backward()'s buffers; the next call rebuilds them.
  void release_training_buffers() {
    out_ = Matrix();
    wt_ = Matrix();
    backward_scratch_ = BackwardScratch();
  }

  Matrix& weight() { return weight_; }
  Matrix& bias() { return bias_; }
  const Matrix& weight() const { return weight_; }
  const Matrix& bias() const { return bias_; }
  Matrix& weight_grad() { return weight_grad_; }
  Matrix& bias_grad() { return bias_grad_; }

 private:
  Matrix weight_;       // out x in
  Matrix bias_;         // 1 x out
  Matrix weight_grad_;  // out x in
  Matrix bias_grad_;    // 1 x out
  Matrix out_;          // training forward output
  Matrix wt_;           // training W^T staging
  BackwardScratch backward_scratch_;
};

/// Elementwise ReLU. Stateless: the training backward reads its mask from
/// the post-activation (post > 0 exactly where pre > 0).
/// (Inference applies max(v, 0.0), the scalar Mlp::predict expression, in
/// infer_into's store, so a NaN stays NaN there.)
struct Relu {
  /// Training: v > 0 ? v : 0.0 (NaN maps to 0).
  static void train_inplace(Matrix& x);
  /// grad *= (post > 0 ? 1 : 0).
  static void backward_inplace(const Matrix& post, Matrix& grad);
};

/// Caller-owned scratch for infer_into (same ownership convention as
/// IbpScratch / dyn::PredictScratch: the layers stay const, so one scratch
/// per worker thread makes batched inference on a shared model
/// thread-safe). Sizes depend only on the layer widths, not the batch.
struct BatchScratch {
  /// Ping-pong activations of one 8-row block (8 x widest layer).
  Matrix a;
  Matrix b;
  /// Per-layer W^T staging for layers with 8 or more outputs.
  std::vector<Matrix> wt;
};

/// Batched inference through `layers` (ReLU between them, none after the
/// last): `out` becomes (input.rows() x last layer's outputs). Each 8-row
/// block goes through every layer with its activations in `scratch`; every
/// output is the bias-first, k-ascending chain of the scalar Mlp::predict,
/// so row r is bit-identical to predict() on row r at any ISA. `out` must
/// not alias `input` or the scratch buffers.
void infer_into(const std::vector<Linear>& layers, const Matrix& input, Matrix& out,
                BatchScratch& scratch);

}  // namespace verihvac::nn
