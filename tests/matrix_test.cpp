#include "tensor/matrix.hpp"

#include <cstdint>

#include <gtest/gtest.h>

#include "tensor/buffer.hpp"

namespace hetsgd::tensor {
namespace {

TEST(AlignedBuffer, AlignmentIs64) {
  AlignedBuffer<Scalar> buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
}

TEST(AlignedBuffer, CopySemantics) {
  AlignedBuffer<Scalar> a(10);
  for (std::size_t i = 0; i < 10; ++i) a[i] = static_cast<Scalar>(i);
  AlignedBuffer<Scalar> b(a);
  EXPECT_EQ(b.size(), 10u);
  b[3] = 99;
  EXPECT_EQ(a[3], 3);  // deep copy
  a = b;
  EXPECT_EQ(a[3], 99);
}

TEST(AlignedBuffer, MoveSemantics) {
  AlignedBuffer<Scalar> a(10);
  a[0] = 42;
  Scalar* p = a.data();
  AlignedBuffer<Scalar> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42);
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer<Scalar> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(Matrix, ConstructionZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (Index r = 0; r < 3; ++r) {
    for (Index c = 0; c < 4; ++c) {
      EXPECT_EQ(m(r, c), 0);
    }
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(1, 2), 6);
}

TEST(Matrix, RowMajorLayout) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[1], 2);
  EXPECT_EQ(m.data()[2], 3);
  EXPECT_EQ(m.data()[3], 4);
  EXPECT_EQ(m.row(1)[0], 3);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2);
  m.fill(7);
  EXPECT_EQ(m(1, 1), 7);
  m.set_zero();
  EXPECT_EQ(m(1, 1), 0);
}

TEST(Matrix, Reshape) {
  Matrix m(2, 6);
  m(1, 5) = 9;
  m.reshape(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m(2, 3), 9);  // same linear position
}

TEST(Matrix, ResizeDiscards) {
  Matrix m(2, 2);
  m.fill(5);
  m.resize(3, 3);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m(0, 0), 0);
  // Same-shape resize keeps contents.
  m.fill(4);
  m.resize(3, 3);
  EXPECT_EQ(m(0, 0), 4);
}

TEST(Matrix, RowsView) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  auto v = m.rows_view(1, 2);
  EXPECT_EQ(v.rows(), 2);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_EQ(v(0, 0), 3);
  EXPECT_EQ(v(1, 1), 6);
  v(0, 0) = 30;
  EXPECT_EQ(m(1, 0), 30);  // view aliases the matrix
}

TEST(Matrix, NestedViews) {
  Matrix m{{1}, {2}, {3}, {4}};
  auto v = m.rows_view(1, 3);
  auto w = v.rows_view(1, 1);
  EXPECT_EQ(w(0, 0), 3);
}

TEST(Matrix, ConstViewFromMutable) {
  Matrix m{{1, 2}};
  MatrixView v = m.view();
  ConstMatrixView cv = v;  // implicit conversion
  EXPECT_EQ(cv(0, 1), 2);
}

TEST(Matrix, SameShape) {
  Matrix a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Matrix, CopyIsDeep) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b = a;
  b(0, 1) = 20;
  EXPECT_EQ(a(0, 1), 2);
  EXPECT_NE(a.data(), b.data());
  a = b;
  b(1, 0) = 30;
  EXPECT_EQ(a(0, 1), 20);
  EXPECT_EQ(a(1, 0), 3);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_DEATH(m.at(2, 0), "out of range");
  EXPECT_DEATH(m.at(0, -1), "out of range");
}

TEST(Matrix, RowsViewBoundsChecked) {
  Matrix m(3, 2);
  EXPECT_DEATH(m.rows_view(2, 2), "out of range");
}

TEST(Matrix, RaggedInitializerDies) {
  EXPECT_DEATH((Matrix{{1, 2}, {3}}), "ragged");
}

}  // namespace
}  // namespace hetsgd::tensor
