#include "common/matrix.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace verihvac {
namespace {

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructionFillsValue) {
  Matrix m(2, 3, 1.5);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, RowRoundTrip) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.row(1), (std::vector<double>{4.0, 5.0, 6.0}));
  m.set_row(0, {7.0, 8.0, 9.0});
  EXPECT_DOUBLE_EQ(m(0, 2), 9.0);
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c;
  Matrix::multiply_into(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyNonSquare) {
  Matrix a{{1.0, 0.0, 2.0}};          // 1x3
  Matrix b{{1.0}, {2.0}, {3.0}};      // 3x1
  Matrix c;
  Matrix::multiply_into(a, b, c);
  EXPECT_EQ(c.rows(), 1u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
}

TEST(MatrixTest, RowViewReadsAndWritesInPlace) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix& cm = m;
  std::span<const double> view = cm.row_view(1);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_DOUBLE_EQ(view[2], 6.0);
  m.row_view(0)[1] = 20.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 20.0);
  m.set_row(1, std::span<const double>(std::vector<double>{7.0, 8.0, 9.0}));
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(MatrixTest, ResizeZeroFillsAndReusesCapacity) {
  Matrix m(8, 8, 3.0);
  const double* before = m.data().data();
  m.resize(4, 4);  // shrink: must reuse the allocation
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.data().data(), before);
  for (double v : m.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MatrixTest, MultiplyIntoMatchesMultiplyBitExact) {
  // The blocked kernel against the unblocked product, bit for bit, on
  // shapes straddling the 64-wide GEMM tile so its tile boundaries (and
  // remainders) are all exercised.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 4},    {64, 64, 64},
                                   {65, 64, 3}, {70, 130, 9}, {128, 65, 66}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]);
    Matrix b(s[1], s[2]);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = static_cast<double>((i * 37 % 23)) / 7.0 - 1.5;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = static_cast<double>((i * 61 % 19)) / 5.0 - 2.0;
    }
    // Reference: the unblocked i-k-j accumulation.
    Matrix expect(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t k = 0; k < a.cols(); ++k) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
          expect(i, j) += a(i, k) * b(k, j);
        }
      }
    }
    Matrix c;
    Matrix::multiply_into(a, b, c);
    ASSERT_EQ(c.rows(), expect.rows());
    ASSERT_EQ(c.cols(), expect.cols());
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c.data()[i], expect.data()[i]) << "shape " << s[0] << "x" << s[1] << "x" << s[2];
    }
  }
}

TEST(MatrixTest, MultiplyIntoReusesOutputAllocation) {
  Matrix a(16, 16, 1.0);
  Matrix b(16, 16, 2.0);
  Matrix c(32, 32);  // larger than the product: capacity must be reused
  const double* before = c.data().data();
  Matrix::multiply_into(a, b, c);
  EXPECT_EQ(c.rows(), 16u);
  EXPECT_EQ(c.cols(), 16u);
  EXPECT_EQ(c.data().data(), before);
  EXPECT_DOUBLE_EQ(c(3, 7), 32.0);
}

TEST(MatrixTest, FillOverwrites) {
  Matrix m(2, 2, 3.0);
  m.fill(0.0);
  for (double v : m.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// Associativity-style property over random shapes.
class MatrixPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixPropertyTest, DistributiveOverAddition) {
  const int n = GetParam();
  Matrix a(n, n);
  Matrix b(n, n);
  Matrix c(n, n);
  // Deterministic pseudo-values.
  for (int i = 0; i < n * n; ++i) {
    a.data()[static_cast<std::size_t>(i)] = (i * 37 % 11) - 5.0;
    b.data()[static_cast<std::size_t>(i)] = (i * 17 % 7) - 3.0;
    c.data()[static_cast<std::size_t>(i)] = (i * 29 % 13) - 6.0;
  }
  Matrix b_plus_c = b;
  for (std::size_t i = 0; i < c.size(); ++i) b_plus_c.data()[i] += c.data()[i];
  Matrix lhs, ab, ac;
  Matrix::multiply_into(a, b_plus_c, lhs);
  Matrix::multiply_into(a, b, ab);
  Matrix::multiply_into(a, c, ac);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs.data()[i], ab.data()[i] + ac.data()[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixPropertyTest, ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace verihvac
