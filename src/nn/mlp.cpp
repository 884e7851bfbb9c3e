#include "nn/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace verihvac::nn {

Mlp::Mlp(const std::vector<std::size_t>& widths) {
  if (widths.size() < 2) throw std::invalid_argument("Mlp needs >= 2 widths");
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    layers_.emplace_back(widths[i], widths[i + 1]);
  }
}

std::size_t Mlp::parameter_count() const {
  std::size_t count = 0;
  for (const auto& layer : layers_) {
    count += layer.weight().size() + layer.bias().size();
  }
  return count;
}

void Mlp::init(Rng& rng) {
  for (auto& layer : layers_) layer.init(rng);
}

const Matrix& Mlp::forward(const Matrix& input) {
  const Matrix* x = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = &layers_[i].forward(*x, /*relu=*/i + 1 < layers_.size());
  }
  return *x;
}

void Mlp::backward(const Matrix& input, const Matrix& grad_output) {
  const Matrix* grad = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 1;) {
    const Matrix& hidden = layers_[i - 1].output();  // post-ReLU: also the mask
    Matrix& grad_input = grad_[i % 2];
    layers_[i].backward(hidden, *grad, &grad_input);
    Relu::backward_inplace(hidden, grad_input);
    grad = &grad_input;
  }
  layers_[0].backward(input, *grad, nullptr);
}

void Mlp::release_training_buffers() {
  grad_[0] = Matrix();
  grad_[1] = Matrix();
  for (auto& layer : layers_) layer.release_training_buffers();
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

void Mlp::predict(const std::vector<double>& input, std::vector<double>& output,
                  std::vector<double>& scratch) const {
  assert(input.size() == input_dim());
  // Ping-pong between `scratch` and `output` so no layer allocates; the
  // source of layer 0 is the caller's input, afterwards the previous buffer.
  const std::vector<double>* src = &input;
  std::vector<double>* buffers[2] = {&scratch, &output};
  int which = 0;

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    std::vector<double>* dst = buffers[which];
    which ^= 1;

    const Linear& layer = layers_[li];
    dst->assign(layer.out_features(), 0.0);
    const Matrix& w = layer.weight();
    const Matrix& b = layer.bias();
    for (std::size_t o = 0; o < layer.out_features(); ++o) {
      const double* wrow = w.row_data(o);
      double sum = b(0, o);
      for (std::size_t i = 0; i < layer.in_features(); ++i) sum += wrow[i] * (*src)[i];
      (*dst)[o] = sum;
    }
    if (li + 1 < layers_.size()) {
      for (double& v : *dst) v = std::max(v, 0.0);
    }
    src = dst;
  }
  if (src != &output) output = *src;
}

void Mlp::forward_into(const Matrix& input, Matrix& out, BatchScratch& scratch) const {
  infer_into(layers_, input, out, scratch);
}

std::vector<double> Mlp::parameters() const {
  std::vector<double> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const auto& w = layer.weight().data();
    const auto& b = layer.bias().data();
    flat.insert(flat.end(), w.begin(), w.end());
    flat.insert(flat.end(), b.begin(), b.end());
  }
  return flat;
}

void Mlp::set_parameters(const std::vector<double>& params) {
  if (params.size() != parameter_count()) {
    throw std::invalid_argument("set_parameters: wrong size");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weight().data();
    std::copy_n(params.begin() + static_cast<long>(offset), w.size(), w.begin());
    offset += w.size();
    auto& b = layer.bias().data();
    std::copy_n(params.begin() + static_cast<long>(offset), b.size(), b.begin());
    offset += b.size();
  }
}

}  // namespace verihvac::nn
