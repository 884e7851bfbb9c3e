#include "common/matrix.hpp"

#include <algorithm>

namespace verihvac {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_ && "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

std::vector<double> Matrix::row(std::size_t r) const {
  assert(r < rows_);
  return std::vector<double>(row_data(r), row_data(r) + cols_);
}

void Matrix::set_row(std::size_t r, const std::vector<double>& values) {
  assert(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), row_data(r));
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  assert(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), row_data(r));
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);  // vector::assign reuses capacity
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);  // no refill when the size is unchanged
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows() && "multiply_into: inner dimensions disagree");
  assert(&c != &a && &c != &b && "multiply_into: output aliases an input");
  c.resize(a.rows(), b.cols());
  // Blocked i-k-j: the inner loop is contiguous in both b and c; the i/k
  // tiles keep at most kTile rows of b hot while a's tile is streamed.
  // Walking k-tiles (and k within a tile) in ascending order preserves the
  // unblocked kernel's accumulation order exactly.
  constexpr std::size_t kTile = 64;
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, a.rows());
    for (std::size_t k0 = 0; k0 < a.cols(); k0 += kTile) {
      const std::size_t k1 = std::min(k0 + kTile, a.cols());
      for (std::size_t i = i0; i < i1; ++i) {
        double* crow = c.row_data(i);
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = a(i, k);
          if (aik == 0.0) continue;
          const double* brow = b.row_data(k);
          for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

}  // namespace verihvac
