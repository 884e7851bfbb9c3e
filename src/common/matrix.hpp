// Minimal dense row-major matrix used by the neural-network module.
//
// The library deliberately avoids external linear-algebra dependencies:
// the dynamics models in the paper are small MLPs (a few thousand
// parameters), so a straightforward cache-friendly implementation is both
// sufficient and easy to audit.
#pragma once

#include <algorithm>
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

  /// C = A * B into caller-owned `c` (resized in place, reusing capacity;
  /// asserts inner dimensions agree). Cache-blocked i-k-j kernel: the
  /// inner loop is contiguous in both B and C, and i/k tiling bounds the
  /// working set of B so large products stay in cache. k-tiles are walked
  /// in ascending order, so every C element accumulates in exactly the
  /// same order as the unblocked i-k-j loop — results are bit-identical to
  /// it. `c` must not alias `a` or `b`. Always inlined, so the nn training
  /// kernel compiles it at each ISA level (see nn/kernels.hpp).
  [[gnu::always_inline]] static inline void multiply_into(const Matrix& a, const Matrix& b,
                                                          Matrix& c);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

inline void Matrix::multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
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
