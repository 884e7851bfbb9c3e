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

TEST(MatrixTest, FillOverwrites) {
  Matrix m(2, 2, 3.0);
  m.fill(0.0);
  for (double v : m.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace verihvac
