// Multilayer perceptron with ReLU hidden activations.
//
// Architecture is given as a width list, e.g. {8, 32, 32, 1}. The final
// layer is linear (regression head). Provides batched forward, a
// scratch-free single-sample fast path (the random-shooting optimizer calls
// it millions of times), and backward for training.
// Training writes into buffers the Mlp owns (not thread-safe); inference
// stays const. nn/layers.hpp gives the training and inference kernels and
// their accumulation orders.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace verihvac::nn {

class Mlp {
 public:
  /// Builds the network; `widths` must have >= 2 entries.
  explicit Mlp(const std::vector<std::size_t>& widths);

  std::size_t input_dim() const { return layers_.front().in_features(); }
  std::size_t output_dim() const { return layers_.back().out_features(); }
  std::size_t parameter_count() const;

  void init(Rng& rng);

  /// Training forward (bias-last order); valid until the next forward().
  const Matrix& forward(const Matrix& input);
  /// Backward from dL/dY for the batch `input` of the last forward();
  /// gradients accumulate in the layers. dL/d(input) is not computed.
  void backward(const Matrix& input, const Matrix& grad_output);
  void zero_grad();
  /// Frees the training buffers; the next forward() rebuilds them. nn::train
  /// calls it when done, so a trained model neither holds nor copies them.
  void release_training_buffers();

  /// Allocation-free single-sample inference into caller-provided scratch.
  /// `scratch` is resized on first use; result has output_dim() entries.
  void predict(const std::vector<double>& input, std::vector<double>& output,
               std::vector<double>& scratch) const;

  /// Batched allocation-free inference: rows of `input` are samples, `out`
  /// becomes (rows x output_dim()). No autograd buffers are touched, so
  /// this is safe on a shared const network with one scratch per thread.
  /// Row r of the result is bit-identical to predict() on row r — the
  /// row-blocked kernel keeps the scalar path's accumulation order (see
  /// nn::infer_into), which rollout/verification equivalence tests lock
  /// in. `out` must not alias `input` or the scratch buffers.
  void forward_into(const Matrix& input, Matrix& out, BatchScratch& scratch) const;

  std::vector<Linear>& layers() { return layers_; }
  const std::vector<Linear>& layers() const { return layers_; }

  /// Flat parameter access (serialization, tests, optimizer hookup).
  std::vector<double> parameters() const;
  void set_parameters(const std::vector<double>& params);

 private:
  std::vector<Linear> layers_;
  Matrix grad_[2];  // backward()'s ping-pong dL/dX (layers hold activations)
};

}  // namespace verihvac::nn
