/**
 * @file
 * The BLAS kernel backend: the MatMul family (MatMulAcc, both transposed
 * variants, and the fused LinearBias) routed through cblas `sgemm`, with
 * every other op inherited from OptimizedBackend.
 *
 * Only compiled when the build enables -DGRANITE_WITH_BLAS=ON (which
 * requires a system BLAS with a cblas interface, e.g. OpenBLAS). In a
 * build without it this header is empty and selecting "blas" is a fatal
 * configuration error; ListKernelBackends() reports the compiled-in
 * status so callers can enumerate before selecting.
 *
 * Numerics: sgemm computes the same mathematical product as the other
 * backends but is free to reassociate, so results may differ from the
 * reference backend by floating-point rounding only — the same contract
 * OptimizedBackend already has. tests/kernels_test.cc enforces
 * equivalence within tolerance, and tests/backend_invariance_test.cc
 * enforces that end-to-end predictions stay bit-identical across
 * backends for the shipped models.
 */
#ifndef GRANITE_ML_KERNELS_BLAS_BACKEND_H_
#define GRANITE_ML_KERNELS_BLAS_BACKEND_H_

#ifdef GRANITE_WITH_BLAS

#include "ml/kernels/optimized_backend.h"

namespace granite::ml {

/** MatMul family on cblas sgemm; optimized kernels for everything else.
 * Pool-free: threading inside the matrix product is the BLAS library's
 * business. */
class BlasBackend : public OptimizedBackend {
 public:
  const char* name() const override;

 protected:
  void DoMatMulAcc(const Tensor& a, const Tensor& b,
                   Tensor& out) const override;
  void DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                             Tensor& out) const override;
  void DoLinearBias(const Tensor& a, const Tensor& w, const Tensor& bias,
                    Tensor& out) const override;
};

}  // namespace granite::ml

#endif  // GRANITE_WITH_BLAS

#endif  // GRANITE_ML_KERNELS_BLAS_BACKEND_H_
