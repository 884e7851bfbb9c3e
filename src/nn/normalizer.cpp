#include "nn/normalizer.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/kernels.hpp"

namespace verihvac::nn {

void Normalizer::fit(const Matrix& data) {
  if (data.rows() == 0) throw std::invalid_argument("Normalizer::fit on empty data");
  const std::size_t dims = data.cols();
  mean_.assign(dims, 0.0);
  std_.assign(dims, 0.0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < dims; ++c) mean_[c] += data(r, c);
  }
  for (double& m : mean_) m /= static_cast<double>(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < dims; ++c) {
      const double d = data(r, c) - mean_[c];
      std_[c] += d * d;
    }
  }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(data.rows()));
    if (s < 1e-9) s = 1.0;  // constant feature: pass through
  }
}

Matrix Normalizer::transform(const Matrix& data) const {
  assert(fitted() && data.cols() == dims());
  Matrix out = data;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = (out(r, c) - mean_[c]) / std_[c];
    }
  }
  return out;
}

Matrix Normalizer::inverse_transform(const Matrix& data) const {
  assert(fitted() && data.cols() == dims());
  Matrix out = data;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      out(r, c) = out(r, c) * std_[c] + mean_[c];
    }
  }
  return out;
}

void Normalizer::transform_into(const Matrix& data, Matrix& out) const {
  assert(fitted());
  active_kernels().standardize(data, mean_, std_, out);
}

void Normalizer::transform_inplace(std::vector<double>& x) const {
  assert(fitted() && x.size() == dims());
  for (std::size_t c = 0; c < x.size(); ++c) x[c] = (x[c] - mean_[c]) / std_[c];
}

void Normalizer::inverse_transform_inplace(std::vector<double>& x) const {
  assert(fitted() && x.size() == dims());
  for (std::size_t c = 0; c < x.size(); ++c) x[c] = x[c] * std_[c] + mean_[c];
}

}  // namespace verihvac::nn
