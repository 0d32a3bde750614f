#include "ml/kernels/kernel_backend.h"

#include <atomic>

#include "base/logging.h"
#include "ml/kernels/optimized_backend.h"
#include "ml/kernels/reference_backend.h"

namespace granite::ml {
namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  GRANITE_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                    "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
                                       << b.rows() << "x" << b.cols());
}

void CheckColumnBlock(const Tensor& tensor, int col_offset, int num_cols) {
  GRANITE_CHECK_GE(col_offset, 0);
  GRANITE_CHECK_GE(num_cols, 0);
  GRANITE_CHECK_LE(col_offset + num_cols, tensor.cols());
}

}  // namespace

KernelBackend::~KernelBackend() = default;

void KernelBackend::MatMulAcc(const Tensor& a, const Tensor& b,
                              Tensor& out) const {
  GRANITE_CHECK_EQ(a.cols(), b.rows());
  GRANITE_CHECK_EQ(out.rows(), a.rows());
  GRANITE_CHECK_EQ(out.cols(), b.cols());
  DoMatMulAcc(a, b, out);
}

void KernelBackend::MatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                        Tensor& out) const {
  GRANITE_CHECK_EQ(a.rows(), b.rows());
  GRANITE_CHECK_EQ(out.rows(), a.cols());
  GRANITE_CHECK_EQ(out.cols(), b.cols());
  DoMatMulTransposeAAcc(a, b, out);
}

void KernelBackend::MatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                        Tensor& out) const {
  GRANITE_CHECK_EQ(a.cols(), b.cols());
  GRANITE_CHECK_EQ(out.rows(), a.rows());
  GRANITE_CHECK_EQ(out.cols(), b.rows());
  DoMatMulTransposeBAcc(a, b, out);
}

void KernelBackend::LinearBias(const Tensor& a, const Tensor& w,
                               const Tensor& bias, Tensor& out) const {
  GRANITE_CHECK_EQ(a.cols(), w.rows());
  GRANITE_CHECK_EQ(bias.rows(), 1);
  GRANITE_CHECK_EQ(bias.cols(), w.cols());
  GRANITE_CHECK_EQ(out.rows(), a.rows());
  GRANITE_CHECK_EQ(out.cols(), w.cols());
  DoLinearBias(a, w, bias, out);
}

void KernelBackend::BinaryPointwise(BinaryOp op, const Tensor& a,
                                    const Tensor& b, Tensor& out) const {
  CheckSameShape(a, b);
  CheckSameShape(a, out);
  DoBinaryPointwise(op, a, b, out);
}

void KernelBackend::ScaleInto(const Tensor& a, float factor,
                              Tensor& out) const {
  CheckSameShape(a, out);
  DoScaleInto(a, factor, out);
}

void KernelBackend::AddScalarInto(const Tensor& a, float constant,
                                  Tensor& out) const {
  CheckSameShape(a, out);
  DoAddScalarInto(a, constant, out);
}

void KernelBackend::AccumulateAdd(const Tensor& a, Tensor& out) const {
  CheckSameShape(a, out);
  DoAccumulateAdd(a, out);
}

void KernelBackend::AccumulateScaled(const Tensor& a, float factor,
                                     Tensor& out) const {
  CheckSameShape(a, out);
  DoAccumulateScaled(a, factor, out);
}

void KernelBackend::AccumulateMul(const Tensor& a, const Tensor& b,
                                  Tensor& out) const {
  CheckSameShape(a, b);
  CheckSameShape(a, out);
  DoAccumulateMul(a, b, out);
}

void KernelBackend::AccumulateConstant(float constant, Tensor& out) const {
  DoAccumulateConstant(constant, out);
}

void KernelBackend::UnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                                 float param) const {
  CheckSameShape(in, out);
  DoUnaryForward(op, in, out, param);
}

void KernelBackend::AccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                                        const Tensor& output,
                                        const Tensor& out_grad,
                                        Tensor& in_grad, float param) const {
  CheckSameShape(input, output);
  CheckSameShape(input, out_grad);
  CheckSameShape(input, in_grad);
  DoAccumulateUnaryGrad(op, input, output, out_grad, in_grad, param);
}

void KernelBackend::AddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                                        Tensor& out) const {
  GRANITE_CHECK_EQ(bias.rows(), 1);
  GRANITE_CHECK_EQ(bias.cols(), a.cols());
  CheckSameShape(a, out);
  DoAddRowBroadcastInto(a, bias, out);
}

void KernelBackend::AccumulateColumnSums(const Tensor& a,
                                         Tensor& out_row) const {
  GRANITE_CHECK_EQ(out_row.rows(), 1);
  GRANITE_CHECK_EQ(out_row.cols(), a.cols());
  DoAccumulateColumnSums(a, out_row);
}

void KernelBackend::MulColumnBroadcastInto(const Tensor& a,
                                           const Tensor& column,
                                           Tensor& out) const {
  GRANITE_CHECK_EQ(column.cols(), 1);
  GRANITE_CHECK_EQ(column.rows(), a.rows());
  CheckSameShape(a, out);
  DoMulColumnBroadcastInto(a, column, out);
}

void KernelBackend::AccumulateMulColumnBroadcast(const Tensor& a,
                                                 const Tensor& column,
                                                 Tensor& out) const {
  GRANITE_CHECK_EQ(column.cols(), 1);
  GRANITE_CHECK_EQ(column.rows(), a.rows());
  CheckSameShape(a, out);
  DoAccumulateMulColumnBroadcast(a, column, out);
}

void KernelBackend::AccumulateRowDots(const Tensor& a, const Tensor& b,
                                      Tensor& out_column) const {
  CheckSameShape(a, b);
  GRANITE_CHECK_EQ(out_column.cols(), 1);
  GRANITE_CHECK_EQ(out_column.rows(), a.rows());
  DoAccumulateRowDots(a, b, out_column);
}

double KernelBackend::SumAll(const Tensor& a) const { return DoSumAll(a); }

void KernelBackend::GatherRowsAcc(const Tensor& table,
                                  const std::vector<int>& indices,
                                  Tensor& out, int out_col_offset) const {
  GRANITE_CHECK_EQ(out.rows(), static_cast<int>(indices.size()));
  CheckColumnBlock(out, out_col_offset, table.cols());
  for (const int index : indices) {
    GRANITE_CHECK(index >= 0 && index < table.rows());
  }
  DoGatherRowsAcc(table, indices, out, out_col_offset);
}

void KernelBackend::ScatterAddRows(const Tensor& rows,
                                   const std::vector<int>& indices,
                                   Tensor& table, int rows_col_offset) const {
  GRANITE_CHECK_EQ(rows.rows(), static_cast<int>(indices.size()));
  CheckColumnBlock(rows, rows_col_offset, table.cols());
  for (const int index : indices) {
    GRANITE_CHECK(index >= 0 && index < table.rows());
  }
  DoScatterAddRows(rows, indices, table, rows_col_offset);
}

void KernelBackend::AccumulateColumnBlock(const Tensor& src,
                                          int src_col_offset, Tensor& dest,
                                          int dest_col_offset,
                                          int num_cols) const {
  GRANITE_CHECK_EQ(src.rows(), dest.rows());
  CheckColumnBlock(src, src_col_offset, num_cols);
  CheckColumnBlock(dest, dest_col_offset, num_cols);
  DoAccumulateColumnBlock(src, src_col_offset, dest, dest_col_offset,
                          num_cols);
}

void KernelBackend::LayerNormForward(const Tensor& x, const Tensor& gain,
                                     const Tensor& bias, float epsilon,
                                     Tensor& out, Tensor& normalized,
                                     std::vector<float>& inv_stddev) const {
  GRANITE_CHECK_EQ(gain.rows(), 1);
  GRANITE_CHECK_EQ(bias.rows(), 1);
  GRANITE_CHECK_EQ(gain.cols(), x.cols());
  GRANITE_CHECK_EQ(bias.cols(), x.cols());
  CheckSameShape(x, out);
  if (!normalized.empty() || !inv_stddev.empty()) {
    CheckSameShape(x, normalized);
    GRANITE_CHECK_EQ(inv_stddev.size(), static_cast<std::size_t>(x.rows()));
  }
  DoLayerNormForward(x, gain, bias, epsilon, out, normalized, inv_stddev);
}

void KernelBackend::LayerNormBackward(const Tensor& out_grad,
                                      const Tensor& gain,
                                      const Tensor& normalized,
                                      const std::vector<float>& inv_stddev,
                                      Tensor* x_grad, Tensor* gain_grad,
                                      Tensor* bias_grad) const {
  CheckSameShape(out_grad, normalized);
  GRANITE_CHECK_EQ(gain.rows(), 1);
  GRANITE_CHECK_EQ(gain.cols(), out_grad.cols());
  GRANITE_CHECK_EQ(inv_stddev.size(),
                   static_cast<std::size_t>(out_grad.rows()));
  if (x_grad != nullptr) CheckSameShape(out_grad, *x_grad);
  if (gain_grad != nullptr) {
    GRANITE_CHECK_EQ(gain_grad->rows(), 1);
    GRANITE_CHECK_EQ(gain_grad->cols(), out_grad.cols());
  }
  if (bias_grad != nullptr) {
    GRANITE_CHECK_EQ(bias_grad->rows(), 1);
    GRANITE_CHECK_EQ(bias_grad->cols(), out_grad.cols());
  }
  DoLayerNormBackward(out_grad, gain, normalized, inv_stddev, x_grad,
                      gain_grad, bias_grad);
}

namespace {

const ReferenceBackend& SharedReferenceBackend() {
  static const ReferenceBackend backend;
  return backend;
}

const OptimizedBackend& SharedOptimizedBackend() {
  static const OptimizedBackend backend;
  return backend;
}

std::atomic<const KernelBackend*> g_default_backend{nullptr};

}  // namespace

const KernelBackend& GetKernelBackend(KernelBackendKind kind) {
  switch (kind) {
    case KernelBackendKind::kDefault:
      return DefaultKernelBackend();
    case KernelBackendKind::kReference:
      return SharedReferenceBackend();
    case KernelBackendKind::kOptimized:
      return SharedOptimizedBackend();
  }
  GRANITE_CHECK_MSG(false, "unknown kernel backend kind");
  return SharedReferenceBackend();
}

const KernelBackend& DefaultKernelBackend() {
  const KernelBackend* const installed =
      g_default_backend.load(std::memory_order_acquire);
  if (installed != nullptr) return *installed;
  return SharedOptimizedBackend();
}

void SetDefaultKernelBackend(const KernelBackend* backend) {
  g_default_backend.store(backend, std::memory_order_release);
}

}  // namespace granite::ml
