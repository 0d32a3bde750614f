#include "ml/tensor.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace granite::ml {

Tensor::Tensor(int rows, int cols)
    : rows_(rows), cols_(cols),
      storage_(static_cast<std::size_t>(rows) * cols, 0.0f) {
  GRANITE_CHECK_GE(rows, 0);
  GRANITE_CHECK_GE(cols, 0);
  data_ = storage_.data();
}

Tensor::Tensor(int rows, int cols, std::vector<float> data)
    : rows_(rows), cols_(cols), storage_(std::move(data)) {
  GRANITE_CHECK_EQ(storage_.size(), static_cast<std::size_t>(rows) * cols);
  data_ = storage_.data();
}

Tensor::Tensor(const Tensor& other)
    : rows_(other.rows_), cols_(other.cols_),
      storage_(other.data_, other.data_ + other.size()) {
  data_ = storage_.data();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    storage_.assign(other.data_, other.data_ + other.size());
    data_ = storage_.data();
    rows_ = other.rows_;
    cols_ = other.cols_;
  }
  return *this;
}

Tensor Tensor::View(int rows, int cols, float* data) {
  Tensor view;
  view.rows_ = rows;
  view.cols_ = cols;
  view.data_ = data;
  return view;
}

Tensor Tensor::Constant(int rows, int cols, float value) {
  Tensor result(rows, cols);
  result.Fill(value);
  return result;
}

Tensor Tensor::Scalar(float value) {
  Tensor result(1, 1);
  result.at(0, 0) = value;
  return result;
}

Tensor Tensor::Row(const std::vector<float>& values) {
  return Tensor(1, static_cast<int>(values.size()), values);
}

Tensor Tensor::Column(const std::vector<float>& values) {
  return Tensor(static_cast<int>(values.size()), 1, values);
}

float& Tensor::at(int row, int col) {
  GRANITE_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  return data_[static_cast<std::size_t>(row) * cols_ + col];
}

float Tensor::at(int row, int col) const {
  GRANITE_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  return data_[static_cast<std::size_t>(row) * cols_ + col];
}

void Tensor::Fill(float value) { std::fill_n(data_, size(), value); }

float Tensor::scalar() const {
  GRANITE_CHECK_MSG(rows_ == 1 && cols_ == 1,
                    "scalar() on " << rows_ << "x" << cols_ << " tensor");
  return data_[0];
}

bool Tensor::operator==(const Tensor& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         std::equal(data_, data_ + size(), other.data_);
}

bool Tensor::AllClose(const Tensor& other, float tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace granite::ml
