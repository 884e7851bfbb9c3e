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

}  // namespace verihvac
