// Feature standardization (z-score) for network inputs/targets.
//
// Fitted on the training split; applied on every prediction. Constant
// features get unit scale so they pass through unchanged.
#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace verihvac::nn {

class Normalizer {
 public:
  Normalizer() = default;

  /// Fits per-column mean/std on `data` (rows = samples).
  void fit(const Matrix& data);

  bool fitted() const { return !mean_.empty(); }
  std::size_t dims() const { return mean_.size(); }

  Matrix transform(const Matrix& data) const;
  Matrix inverse_transform(const Matrix& data) const;

  /// Allocation-free batched transform into caller-owned `out` (resized in
  /// place, capacity reused; must not alias `data`). Same per-element
  /// expression as the in-place single-sample path, so batched and scalar
  /// normalization agree bit-for-bit.
  void transform_into(const Matrix& data, Matrix& out) const;

  /// In-place single-sample variants (hot path of rollout prediction).
  void transform_inplace(std::vector<double>& x) const;
  void inverse_transform_inplace(std::vector<double>& x) const;

  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& std() const { return std_; }

 private:
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace verihvac::nn
