// The batched hot kernels, compiled once per x86-64 ISA level.
//
// Every kernel here is one body compiled three times in nn/kernels.cpp: at
// the baseline x86-64 ISA, at x86-64-v3 (AVX2) and at x86-64-v4
// (AVX-512). active_kernels() picks the widest variant the running CPU
// supports, once per process, so one binary runs on any x86-64 host at
// that host's widest SIMD. Other architectures build the baseline variant
// alone. All variants compute bit-identical results: the kernels vectorize
// across independent outputs and never reorder an accumulation chain, and
// their file builds with -ffp-contract=off, so no mul+add fuses into an FMA
// the scalar paths do not use, and with -fno-math-errno, so Adam's sqrt
// vectorizes (it is correctly rounded either way).
//
// The kernels cover a whole training step (Linear's forward and backward,
// Adam's update) and the batched inference path (nn::infer_into and the
// normalizer). The backward skips zero gradients by a per-lane select or
// a branch-free compaction, never by a branch per term. Callers go
// through Linear, Adam, Mlp::forward_into, nn::infer_into and
// Normalizer::transform_into; the table is public so tests can run every
// variant the host supports and compare them bit for bit.
#pragma once

#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "nn/adam.hpp"
#include "nn/layers.hpp"

namespace verihvac::nn {

struct KernelVariant {
  /// "baseline" (the ISA the library builds for), "x86-64-v3" or "x86-64-v4".
  const char* name;
  /// Whether the running CPU (and OS) can execute this variant.
  bool (*supported)();

  /// Linear::forward before its ReLU: out = input W^T + b, the bias added
  /// after the k-ascending chain. `wt` is W^T staging.
  void (*linear_forward)(const Matrix& weight, const Matrix& bias, const Matrix& input,
                         Matrix& out, Matrix& wt);
  /// Linear::backward: weight_grad += dY^T X, bias_grad += column sums of
  /// dY, and grad_input = dY W if `grad_input` is not null. dW(o, k) adds
  /// its terms r ascending onto its old value, dX(r, k) adds its terms o
  /// ascending from +0.0, and both skip exactly the terms whose dY is
  /// +0.0 or -0.0 (a NaN dY is kept). `scratch` holds the compacted terms.
  void (*linear_backward)(const Matrix& weight, const Matrix& input, const Matrix& grad_output,
                          Matrix& weight_grad, Matrix& bias_grad, Matrix* grad_input,
                          BackwardScratch& scratch);
  /// nn::infer_into.
  void (*infer)(const std::vector<Linear>& layers, const Matrix& input, Matrix& out,
                BatchScratch& scratch);
  /// Normalizer::transform_into: out(r, c) = (data(r, c) - mean[c]) / stddev[c].
  void (*standardize)(const Matrix& data, const std::vector<double>& mean,
                      const std::vector<double>& stddev, Matrix& out);
  /// Adam::step over one parameter block of `size` elements: per element,
  /// the moments m and v, then the parameter, given the step's bias
  /// corrections 1 - beta^t. Bit-identical to the scalar per-parameter loop.
  void (*adam_update)(const AdamConfig& config, double bias_correction1, double bias_correction2,
                      double* param, const double* grad, double* m, double* v, std::size_t size);
};

/// Every compiled variant, baseline first and widest last, whether or not
/// the running CPU supports it.
std::span<const KernelVariant> kernel_variants();

/// The widest supported variant, chosen on first use and fixed for the
/// process. VERI_HVAC_LOG=debug logs the choice.
const KernelVariant& active_kernels();

}  // namespace verihvac::nn
