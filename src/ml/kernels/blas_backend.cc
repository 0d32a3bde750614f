/**
 * @file
 * cblas sgemm bindings for the MatMul family. Tensors are dense
 * row-major with no padding (row_data(r) == data() + r * cols), so every
 * product maps onto a single sgemm call with beta=1 to preserve the
 * accumulating `*Acc` contract.
 */
#ifdef GRANITE_WITH_BLAS

#include "ml/kernels/blas_backend.h"

#include <cblas.h>

#include <cstring>

#include "ml/tensor.h"

namespace granite::ml {

const char* BlasBackend::name() const { return "blas"; }

void BlasBackend::DoMatMulAcc(const Tensor& a, const Tensor& b,
                              Tensor& out) const {
  // out[m,n] += A[m,k] * B[k,n].
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  if (m == 0 || n == 0 || k == 0) return;
  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, m, n, k, 1.0f,
              a.data(), k, b.data(), n, 1.0f, out.data(), n);
}

void BlasBackend::DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                        Tensor& out) const {
  // out[m,n] += A^T * B with A stored [k,m], B stored [k,n].
  const int k = a.rows();
  const int m = a.cols();
  const int n = b.cols();
  if (m == 0 || n == 0 || k == 0) return;
  cblas_sgemm(CblasRowMajor, CblasTrans, CblasNoTrans, m, n, k, 1.0f,
              a.data(), m, b.data(), n, 1.0f, out.data(), n);
}

void BlasBackend::DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                        Tensor& out) const {
  // out[m,n] += A * B^T with A stored [m,k], B stored [n,k].
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  if (m == 0 || n == 0 || k == 0) return;
  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasTrans, m, n, k, 1.0f,
              a.data(), k, b.data(), k, 1.0f, out.data(), n);
}

void BlasBackend::DoLinearBias(const Tensor& a, const Tensor& w,
                               const Tensor& bias, Tensor& out) const {
  // out = A * W + bias: seed each output row with the bias, then let the
  // accumulating sgemm add the product on top.
  const int n = out.cols();
  for (int r = 0; r < out.rows(); ++r) {
    std::memcpy(out.row_data(r), bias.data(),
                static_cast<std::size_t>(n) * sizeof(float));
  }
  DoMatMulAcc(a, w, out);
}

}  // namespace granite::ml

#endif  // GRANITE_WITH_BLAS
