/**
 * @file
 * Dense 2-D float tensor, the storage type of the GRANITE ML library.
 *
 * All model state (embeddings, weight matrices, activations) is represented
 * as row-major matrices of 32-bit floats. Vectors are 1xN or Nx1 matrices;
 * scalars are 1x1. The class is deliberately minimal: arithmetic lives in
 * the kernel backends (ml/kernels/kernel_backend.h) so that the autodiff
 * tape can reuse the same kernels for forward and backward passes.
 *
 * A tensor usually owns its storage. The autodiff tape alone can also
 * make a non-owning view: an inference tape's parameter leaves borrow
 * parameter storage, and an arena-backed tape's node storage is
 * bump-allocated TapeArena memory (ml/tape_arena.h). A view never leaves
 * its tape, because copying any
 * tensor yields an owning deep copy; only a move keeps the view.
 */
#ifndef GRANITE_ML_TENSOR_H_
#define GRANITE_ML_TENSOR_H_

#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace granite::ml {

class Tape;

/** A row-major matrix of floats. */
class Tensor {
 public:
  /** Creates an empty 0x0 tensor. */
  Tensor() = default;

  /** Creates a `rows` x `cols` tensor initialized to zero. */
  Tensor(int rows, int cols);

  /** Creates a tensor from explicit data (size must be rows*cols). */
  Tensor(int rows, int cols, std::vector<float> data);

  /** Copies are deep and always own their storage, views included. */
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);

  /** Moves take the storage over (a moved vector keeps its buffer, so
   * `data_` stays valid); a moved view stays a view. The source is left
   * empty. */
  Tensor(Tensor&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        data_(std::exchange(other.data_, nullptr)),
        storage_(std::move(other.storage_)) {}
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      rows_ = std::exchange(other.rows_, 0);
      cols_ = std::exchange(other.cols_, 0);
      data_ = std::exchange(other.data_, nullptr);
      storage_ = std::move(other.storage_);
    }
    return *this;
  }

  /** Returns a rows x cols tensor filled with `value`. */
  static Tensor Constant(int rows, int cols, float value);

  /** Returns a 1x1 tensor holding `value`. */
  static Tensor Scalar(float value);

  /** Returns a 1xN row vector from `values`. */
  static Tensor Row(const std::vector<float>& values);

  /** Returns an Nx1 column vector from `values`. */
  static Tensor Column(const std::vector<float>& values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /** Total number of elements. */
  std::size_t size() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }

  /** True when the tensor holds no elements. */
  bool empty() const { return size() == 0; }

  /** Mutable element access with bounds checks in debug builds. */
  float& at(int row, int col);

  /** Const element access. */
  float at(int row, int col) const;

  /** Raw storage pointers (row-major). */
  float* data() { return data_; }
  const float* data() const { return data_; }

  /**
   * Pointer to the start of `row`; aborts unless 0 <= row < rows() in
   * every build. Defined inline because the matmul micro-kernels call it
   * once per k step: an out-of-line call clobbers every vector register
   * under the SysV ABI and forces the accumulator tile through memory,
   * whereas the inline check is a compare plus a cold branch into the
   * [[noreturn]] panic, which leaves the accumulators live.
   */
  float* row_data(int row) {
    GRANITE_CHECK(row >= 0 && row < rows_);
    return data_ + static_cast<std::size_t>(row) * cols_;
  }
  const float* row_data(int row) const {
    GRANITE_CHECK(row >= 0 && row < rows_);
    return data_ + static_cast<std::size_t>(row) * cols_;
  }

  /** Sets every element to `value`. */
  void Fill(float value);

  /** Sets every element to zero. */
  void SetZero() { Fill(0.0f); }

  /** Returns the single element of a 1x1 tensor. */
  float scalar() const;

  /** True if both shape and all elements match exactly. */
  bool operator==(const Tensor& other) const;

  /** Element-wise closeness within `tolerance`. Shapes must match. */
  bool AllClose(const Tensor& other, float tolerance = 1e-5f) const;

 private:
  friend class Tape;

  /** A rows x cols view of `data`, which must outlive the view. */
  static Tensor View(int rows, int cols, float* data);

  int rows_ = 0;
  int cols_ = 0;
  // storage_.data() for an owning tensor, borrowed memory for a view.
  float* data_ = nullptr;
  std::vector<float> storage_;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_TENSOR_H_
