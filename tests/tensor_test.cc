/**
 * @file
 * Tests of the Tensor storage class.
 */
#include <utility>

#include "gtest/gtest.h"
#include "ml/tensor.h"

namespace granite::ml {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor tensor;
  EXPECT_EQ(tensor.rows(), 0);
  EXPECT_EQ(tensor.cols(), 0);
  EXPECT_TRUE(tensor.empty());
}

TEST(TensorTest, ConstructionZeroInitializes) {
  Tensor tensor(2, 3);
  EXPECT_EQ(tensor.size(), 6u);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(tensor.at(r, c), 0.0f);
  }
}

TEST(TensorTest, RowMajorLayout) {
  Tensor tensor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(tensor.at(0, 0), 1.0f);
  EXPECT_EQ(tensor.at(0, 2), 3.0f);
  EXPECT_EQ(tensor.at(1, 0), 4.0f);
  EXPECT_EQ(tensor.row_data(1)[2], 6.0f);
}

TEST(TensorTest, Factories) {
  EXPECT_EQ(Tensor::Scalar(3.5f).scalar(), 3.5f);
  const Tensor row = Tensor::Row({1, 2, 3});
  EXPECT_EQ(row.rows(), 1);
  EXPECT_EQ(row.cols(), 3);
  const Tensor column = Tensor::Column({1, 2});
  EXPECT_EQ(column.rows(), 2);
  EXPECT_EQ(column.cols(), 1);
  const Tensor constant = Tensor::Constant(2, 2, 7.0f);
  EXPECT_EQ(constant.at(1, 1), 7.0f);
}

TEST(TensorTest, FillAndSetZero) {
  Tensor tensor(2, 2);
  tensor.Fill(5.0f);
  EXPECT_EQ(tensor.at(0, 1), 5.0f);
  tensor.SetZero();
  EXPECT_EQ(tensor.at(0, 1), 0.0f);
}

TEST(TensorTest, EqualityAndCloseness) {
  const Tensor a(2, 2, {1, 2, 3, 4});
  const Tensor b(2, 2, {1, 2, 3, 4});
  const Tensor c(2, 2, {1, 2, 3, 4.0001f});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a.AllClose(c, 1e-3f));
  EXPECT_FALSE(a.AllClose(c, 1e-6f));
  const Tensor d(1, 4, {1, 2, 3, 4});
  EXPECT_FALSE(a.AllClose(d));
}

TEST(TensorTest, CopiesAreDeepAndMovesEmptyTheSource) {
  Tensor source(2, 2, {1, 2, 3, 4});
  Tensor copy = source;
  copy.at(0, 0) = 9.0f;
  EXPECT_EQ(source.at(0, 0), 1.0f);
  Tensor assigned(1, 1);
  assigned = source;
  EXPECT_TRUE(assigned == source);
  EXPECT_NE(assigned.data(), source.data());

  const float* storage = source.data();
  Tensor moved = std::move(source);
  EXPECT_EQ(moved.data(), storage);
  EXPECT_TRUE(moved == Tensor(2, 2, {1, 2, 3, 4}));
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.data(), nullptr);
  source = std::move(moved);
  EXPECT_EQ(source.data(), storage);
  EXPECT_TRUE(moved.empty());
}

TEST(TensorDeathTest, RowDataChecksBoundsInEveryBuild) {
  // row_data is inline for the matmul kernels, but its bounds check is a
  // GRANITE_CHECK, not an assert: it must fire with NDEBUG defined too.
  Tensor tensor(3, 2);
  const Tensor& const_tensor = tensor;
  EXPECT_DEATH((void)tensor.row_data(-1), "Check failed");
  EXPECT_DEATH((void)tensor.row_data(tensor.rows()), "Check failed");
  EXPECT_DEATH((void)const_tensor.row_data(-1), "Check failed");
  EXPECT_DEATH((void)const_tensor.row_data(const_tensor.rows()),
               "Check failed");
  EXPECT_EQ(tensor.row_data(2), tensor.data() + 4);
  EXPECT_EQ(const_tensor.row_data(1), const_tensor.data() + 2);
}

}  // namespace
}  // namespace granite::ml
