/**
 * @file
 * The reference kernel backend: plain scalar loops that spell out the
 * summation order kernel_backend.h states for each kernel, the
 * correctness oracle that the equivalence test suite
 * (tests/kernels_test.cc) holds the optimized backend to bit for bit.
 */
#ifndef GRANITE_ML_KERNELS_REFERENCE_BACKEND_H_
#define GRANITE_ML_KERNELS_REFERENCE_BACKEND_H_

#include "ml/kernels/kernel_backend.h"

namespace granite::ml {

/** Straightforward scalar loops; stateless and thread-safe. */
class ReferenceBackend : public KernelBackend {
 public:
  const char* name() const override { return "reference"; }

 protected:
  void DoMatMulAcc(const Tensor& a, const Tensor& b,
                   Tensor& out) const override;
  void DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoLinearBias(const Tensor& a, const Tensor& w, const Tensor& bias,
                    Tensor& out) const override;
  void DoBinaryPointwise(BinaryOp op, const Tensor& a, const Tensor& b,
                         Tensor& out) const override;
  void DoScaleInto(const Tensor& a, float factor, Tensor& out) const override;
  void DoAddScalarInto(const Tensor& a, float constant,
                       Tensor& out) const override;
  void DoAccumulateAdd(const Tensor& a, Tensor& out) const override;
  void DoAccumulateScaled(const Tensor& a, float factor,
                          Tensor& out) const override;
  void DoAccumulateMul(const Tensor& a, const Tensor& b,
                       Tensor& out) const override;
  void DoAccumulateConstant(float constant, Tensor& out) const override;
  void DoUnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                      float param) const override;
  void DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                             const Tensor& output, const Tensor& out_grad,
                             Tensor& in_grad, float param) const override;
  void DoAddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                             Tensor& out) const override;
  void DoAccumulateColumnSums(const Tensor& a, Tensor& out_row) const override;
  void DoMulColumnBroadcastInto(const Tensor& a, const Tensor& column,
                                Tensor& out) const override;
  void DoAccumulateMulColumnBroadcast(const Tensor& a, const Tensor& column,
                                      Tensor& out) const override;
  void DoAccumulateRowDots(const Tensor& a, const Tensor& b,
                           Tensor& out_column) const override;
  double DoSumAll(const Tensor& a) const override;
  void DoGatherRowsAcc(const Tensor& table, const std::vector<int>& indices,
                       Tensor& out, int out_col_offset) const override;
  void DoScatterAddRows(const Tensor& rows, const std::vector<int>& indices,
                        Tensor& table, int rows_col_offset) const override;
  void DoAccumulateColumnBlock(const Tensor& src, int src_col_offset,
                               Tensor& dest, int dest_col_offset,
                               int num_cols) const override;
  void DoLayerNormForward(const Tensor& x, const Tensor& gain,
                          const Tensor& bias, float epsilon, Tensor& out,
                          Tensor& normalized,
                          std::vector<float>& inv_stddev) const override;
  void DoLayerNormBackward(const Tensor& out_grad, const Tensor& gain,
                           const Tensor& normalized,
                           const std::vector<float>& inv_stddev,
                           Tensor* x_grad, Tensor* gain_grad,
                           Tensor* bias_grad) const override;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_KERNELS_REFERENCE_BACKEND_H_
