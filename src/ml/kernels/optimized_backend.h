/**
 * @file
 * The optimized kernel backend: register-tiled MatMul micro-kernels with
 * vectorizable (`#pragma omp simd`) inner loops, fused AXPY/scale/bias
 * element-wise kernels and a row-interleaved LayerNorm.
 * Every kernel runs on the calling thread.
 *
 * The hot loops live in optimized_kernels.inc and are compiled twice from
 * that one source: once for the x86-64 baseline the whole build targets,
 * once under `#pragma GCC target("avx2")`. The constructor picks a copy
 * once, from CPUID: AVX2 when the CPU has it, else the baseline (builds
 * for other targets or compilers carry the baseline copy only). The
 * library therefore stays runnable on any x86-64 CPU. FMA is never
 * enabled, and both copies round every product and sum separately in the
 * same order, so the two copies are bit-identical to each other for
 * every kernel; isa() says which one runs.
 *
 * The plain product runs a 4x16 micro-kernel whose per-row sum order
 * does not depend on the row's position in the call, so a row's result
 * is the same at every batch row count. Each tile sums its products from
 * zero over the whole depth (no k-blocking) and adds them to the output
 * once; the AVX2 copy keeps the tile in registers, the baseline copy in a
 * stack array, and the n % 16 column remainder runs the stack-array tile
 * at its width. The dX product (A * B^T, with B the small weight) packs B
 * transposed once per call and reuses that micro-kernel. The A^T * B (dW)
 * product runs a tile that stays in registers across the whole k loop,
 * 4x16 in the AVX2 copy and 4x8 in the baseline copy (and for an
 * 8-column remainder): it is loaded from the output, summed over k in
 * ascending order and stored once. LayerNorm forward and backward process
 * 4 rows at a time with one set of sums per row. Every kernel follows the
 * summation order kernel_backend.h states, so both copies are
 * bit-identical to the reference backend.
 *
 * Inherits the reference loops for the ops where a tuned kernel buys
 * nothing (transcendental element-wise maps, column broadcasts, row
 * dots, SumAll) and overrides everything on the training hot path,
 * including the column-block accumulate of ConcatGathered. Bit-identity
 * with the reference backend across odd/prime/deep shapes, for both ISA
 * copies, is enforced by tests/kernels_test.cc.
 */
#ifndef GRANITE_ML_KERNELS_OPTIMIZED_BACKEND_H_
#define GRANITE_ML_KERNELS_OPTIMIZED_BACKEND_H_

#include "ml/kernels/reference_backend.h"

namespace granite::ml {

struct OptimizedKernels;

/** Tiled/SIMD kernels, single-threaded. */
class OptimizedBackend : public ReferenceBackend {
 public:
  /**
   * @param force_baseline_isa Run the baseline copy even on an AVX2 CPU;
   *   for tests and benches that compare the two copies.
   */
  explicit OptimizedBackend(bool force_baseline_isa = false);

  const char* name() const override;

  /** The compiled copy this instance runs: "avx2" or "baseline". */
  const char* isa() const;

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
  void DoUnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                      float param) const override;
  void DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                             const Tensor& output, const Tensor& out_grad,
                             Tensor& in_grad, float param) const override;
  void DoAddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                             Tensor& out) const override;
  void DoAccumulateColumnSums(const Tensor& a, Tensor& out_row) const override;
  void DoAccumulateColumnBlock(const Tensor& src, int src_col_offset,
                               Tensor& dest, int dest_col_offset,
                               int num_cols) const override;
  void DoGatherRowsAcc(const Tensor& table, const std::vector<int>& indices,
                       Tensor& out, int out_col_offset) const override;
  void DoScatterAddRows(const Tensor& rows, const std::vector<int>& indices,
                        Tensor& table, int rows_col_offset) const override;
  void DoLayerNormForward(const Tensor& x, const Tensor& gain,
                          const Tensor& bias, float epsilon, Tensor& out,
                          Tensor& normalized,
                          std::vector<float>& inv_stddev) const override;
  void DoLayerNormBackward(const Tensor& out_grad, const Tensor& gain,
                           const Tensor& normalized,
                           const std::vector<float>& inv_stddev,
                           Tensor* x_grad, Tensor* gain_grad,
                           Tensor* bias_grad) const override;

 private:
  const OptimizedKernels* kernels_;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_KERNELS_OPTIMIZED_BACKEND_H_
