// Adam optimizer with decoupled L2 weight decay.
//
// Matches the paper's training setup: Adam, learning_rate = 1e-3,
// weight_decay = 1e-5 (applied as classic L2-into-gradient, which is what
// torch.optim.Adam's weight_decay does).
#pragma once

#include <vector>

#include "nn/mlp.hpp"

namespace verihvac::nn {

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 1e-5;
};

class Adam {
 public:
  Adam(Mlp& model, AdamConfig config = {});

  /// Applies one update from the gradients accumulated in the model's
  /// layers, then leaves gradients untouched (caller zero_grads).
  void step();

  const AdamConfig& config() const { return config_; }
  std::size_t steps_taken() const { return t_; }
  /// The first and second moment estimates, in Mlp::parameters() order.
  const std::vector<double>& first_moment() const { return m_; }
  const std::vector<double>& second_moment() const { return v_; }

 private:
  /// One parameter matrix and its gradient; its moments are the next
  /// `size` elements of m_ and v_, in the order of blocks_.
  struct Block {
    double* param;
    const double* grad;
    std::size_t size;
  };
  std::vector<Block> blocks_;
  std::vector<double> m_;
  std::vector<double> v_;
  AdamConfig config_;
  std::size_t t_ = 0;
};

}  // namespace verihvac::nn
