#include "nn/layers.hpp"

#include <cassert>
#include <cmath>

#include "nn/kernels.hpp"

namespace verihvac::nn {

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
  active_kernels().linear_forward(weight_, bias_, input, out_, wt_);
  if (relu) Relu::train_inplace(out_);
  return out_;
}

void Linear::backward(const Matrix& input, const Matrix& grad_output, Matrix* grad_input) {
  active_kernels().linear_backward(weight_, input, grad_output, weight_grad_, bias_grad_,
                                   grad_input, backward_scratch_);
}

void Linear::zero_grad() {
  weight_grad_.fill(0.0);
  bias_grad_.fill(0.0);
}

void Relu::train_inplace(Matrix& x) {
  for (double& v : x.data()) v = v > 0.0 ? v : 0.0;
}

void Relu::backward_inplace(const Matrix& post, Matrix& grad) {
  assert(grad.rows() == post.rows() && grad.cols() == post.cols());
  for (std::size_t i = 0; i < grad.size(); ++i) grad.data()[i] *= post.data()[i] > 0.0 ? 1.0 : 0.0;
}

void infer_into(const std::vector<Linear>& layers, const Matrix& input, Matrix& out,
                BatchScratch& scratch) {
  active_kernels().infer(layers, input, out, scratch);
}

}  // namespace verihvac::nn
