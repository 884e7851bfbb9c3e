// Minimal dense row-major matrix used by the neural-network module.
//
// The library deliberately avoids external linear-algebra dependencies:
// the dynamics models in the paper are small MLPs (a few thousand
// parameters), so a straightforward cache-friendly implementation is both
// sufficient and easy to audit.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace verihvac {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Constructs from a nested initializer list; all rows must have equal width.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_data(std::size_t r) const { return data_.data() + r * cols_; }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Non-owning view of row `r` (batch pipelines iterate rows without
  /// materializing per-row vectors).
  std::span<double> row_view(std::size_t r) {
    assert(r < rows_);
    return {row_data(r), cols_};
  }
  std::span<const double> row_view(std::size_t r) const {
    assert(r < rows_);
    return {row_data(r), cols_};
  }

  /// Extracts row `r` as a vector.
  std::vector<double> row(std::size_t r) const;
  /// Overwrites row `r` from a vector of length cols().
  void set_row(std::size_t r, const std::vector<double>& values);
  /// Overwrites row `r` from a span of length cols().
  void set_row(std::size_t r, std::span<const double> values);

  /// Reshapes to rows x cols and zero-fills. Reuses the existing capacity,
  /// so repeated resize/compute cycles (the batch inference scratch
  /// pattern) allocate only when the batch outgrows every earlier one.
  void resize(std::size_t rows, std::size_t cols);

  /// Reshapes to rows x cols WITHOUT clearing: contents are unspecified.
  /// For kernels that overwrite every element anyway (the batched Linear
  /// forward bias-initializes each row), skipping the zero pass halves the
  /// write traffic. Reuses capacity like resize().
  void reshape(std::size_t rows, std::size_t cols);

  void fill(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace verihvac
