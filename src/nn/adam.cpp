#include "nn/adam.hpp"

#include <cmath>

#include "nn/kernels.hpp"

namespace verihvac::nn {

Adam::Adam(Mlp& model, AdamConfig config) : config_(config) {
  for (auto& layer : model.layers()) {
    blocks_.push_back(Block{layer.weight().data().data(), layer.weight_grad().data().data(),
                            layer.weight().size()});
    blocks_.push_back(
        Block{layer.bias().data().data(), layer.bias_grad().data().data(), layer.bias().size()});
  }
  m_.assign(model.parameter_count(), 0.0);
  v_.assign(model.parameter_count(), 0.0);
}

void Adam::step() {
  ++t_;
  const double bias_correction1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bias_correction2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  const KernelVariant& kernels = active_kernels();
  std::size_t offset = 0;
  for (const Block& block : blocks_) {
    kernels.adam_update(config_, bias_correction1, bias_correction2, block.param, block.grad,
                        m_.data() + offset, v_.data() + offset, block.size);
    offset += block.size;
  }
}

}  // namespace verihvac::nn
