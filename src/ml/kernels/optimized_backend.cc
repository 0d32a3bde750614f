#include "ml/kernels/optimized_backend.h"

#include <cmath>
#include <cstring>
#include <vector>

// The AVX2 copy needs GCC's target pragma and CPUID builtin on x86-64;
// any other build compiles only the baseline copy.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GRANITE_OPTIMIZED_AVX2_COPY 1
#else
#define GRANITE_OPTIMIZED_AVX2_COPY 0
#endif

namespace granite::ml {

/** One compiled copy of the hot loops in optimized_kernels.inc. */
struct OptimizedKernels {
  const char* isa;
  void (*matmul_rows)(const Tensor& a, const Tensor& b, Tensor& out, int i0,
                      int i1);
  void (*matmul_transpose_a_rows)(const Tensor& a, const Tensor& b,
                                  Tensor& out, int i0, int i1);
  void (*layer_norm_forward)(const Tensor& x, const Tensor& gain,
                             const Tensor& bias, float epsilon, Tensor& out,
                             Tensor* normalized, float* inv_stddev);
  void (*layer_norm_backward)(const Tensor& out_grad, const Tensor& gain,
                              const Tensor& normalized,
                              const std::vector<float>& inv_stddev,
                              Tensor* x_grad, Tensor* gain_grad,
                              Tensor* bias_grad);
  void (*binary_pointwise)(BinaryOp op, const Tensor& a, const Tensor& b,
                           Tensor& out);
  void (*scale_into)(const Tensor& a, float factor, Tensor& out);
  void (*add_scalar_into)(const Tensor& a, float constant, Tensor& out);
  void (*accumulate_add)(const Tensor& a, Tensor& out);
  void (*accumulate_scaled)(const Tensor& a, float factor, Tensor& out);
  void (*accumulate_mul)(const Tensor& a, const Tensor& b, Tensor& out);
  bool (*unary_forward)(UnaryOp op, const Tensor& in, Tensor& out);
  bool (*accumulate_unary_grad)(UnaryOp op, const Tensor& input,
                                const Tensor& output, const Tensor& out_grad,
                                Tensor& in_grad);
  void (*add_row_broadcast_into)(const Tensor& a, const Tensor& bias,
                                 Tensor& out);
  void (*accumulate_column_sums)(const Tensor& a, Tensor& out_row);
  void (*accumulate_column_block)(const Tensor& src, int src_col_offset,
                                  Tensor& dest, int dest_col_offset,
                                  int num_cols);
};

namespace {

// The baseline copy is included first, so any library template the
// kernels instantiate is first instantiated for the baseline ISA.
namespace baseline {
constexpr char kIsa[] = "baseline";
constexpr std::size_t kVectorBytes = 16;
#include "ml/kernels/optimized_kernels.inc"
}  // namespace baseline

#if GRANITE_OPTIMIZED_AVX2_COPY
// "avx2" only, never "fma": a fused multiply-add would round once where
// the baseline copy rounds twice.
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
constexpr char kIsa[] = "avx2";
constexpr std::size_t kVectorBytes = 32;
#include "ml/kernels/optimized_kernels.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

/** The copy this CPU runs: AVX2 when it has AVX2 (and the OS saves the
 * ymm state), else the baseline. */
const OptimizedKernels& SelectKernels(bool force_baseline_isa) {
#if GRANITE_OPTIMIZED_AVX2_COPY
  __builtin_cpu_init();
  if (!force_baseline_isa && __builtin_cpu_supports("avx2")) {
    return avx2::kKernels;
  }
#else
  (void)force_baseline_isa;
#endif
  return baseline::kKernels;
}

}  // namespace

OptimizedBackend::OptimizedBackend(bool force_baseline_isa)
    : kernels_(&SelectKernels(force_baseline_isa)) {}

const char* OptimizedBackend::name() const { return "optimized"; }

const char* OptimizedBackend::isa() const { return kernels_->isa; }

void OptimizedBackend::DoMatMulAcc(const Tensor& a, const Tensor& b,
                                   Tensor& out) const {
  kernels_->matmul_rows(a, b, out, 0, a.rows());
}

void OptimizedBackend::DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  kernels_->matmul_transpose_a_rows(a, b, out, 0, a.cols());
}

void OptimizedBackend::DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  // B is the small operand on the training path (dX = dY * W^T), so pack
  // it transposed once and run the plain product's micro-kernel instead
  // of short dot-product reductions.
  const int n = b.rows();
  const int k = b.cols();
  Tensor b_transposed(k, n);
  const float* __restrict__ source = b.data();
  float* __restrict__ packed = b_transposed.data();
  for (int j = 0; j < n; ++j) {
    for (int p = 0; p < k; ++p) packed[p * n + j] = source[j * k + p];
  }
  DoMatMulAcc(a, b_transposed, out);
}

void OptimizedBackend::DoLinearBias(const Tensor& a, const Tensor& w,
                                    const Tensor& bias, Tensor& out) const {
  // Fused bias: seed every output row with the bias vector, then run the
  // accumulating tiled product — one pass over `out` less than a
  // separate broadcast-add.
  const float* bias_row = bias.row_data(0);
  const std::size_t row_bytes = static_cast<std::size_t>(out.cols()) *
                                sizeof(float);
  for (int r = 0; r < out.rows(); ++r) {
    std::memcpy(out.row_data(r), bias_row, row_bytes);
  }
  DoMatMulAcc(a, w, out);
}

void OptimizedBackend::DoBinaryPointwise(BinaryOp op, const Tensor& a,
                                         const Tensor& b, Tensor& out) const {
  kernels_->binary_pointwise(op, a, b, out);
}

void OptimizedBackend::DoScaleInto(const Tensor& a, float factor,
                                   Tensor& out) const {
  kernels_->scale_into(a, factor, out);
}

void OptimizedBackend::DoAddScalarInto(const Tensor& a, float constant,
                                       Tensor& out) const {
  kernels_->add_scalar_into(a, constant, out);
}

void OptimizedBackend::DoAccumulateAdd(const Tensor& a, Tensor& out) const {
  kernels_->accumulate_add(a, out);
}

void OptimizedBackend::DoAccumulateScaled(const Tensor& a, float factor,
                                          Tensor& out) const {
  kernels_->accumulate_scaled(a, factor, out);
}

void OptimizedBackend::DoAccumulateMul(const Tensor& a, const Tensor& b,
                                       Tensor& out) const {
  kernels_->accumulate_mul(a, b, out);
}

void OptimizedBackend::DoUnaryForward(UnaryOp op, const Tensor& in,
                                      Tensor& out, float param) const {
  if (!kernels_->unary_forward(op, in, out)) {
    ReferenceBackend::DoUnaryForward(op, in, out, param);
  }
}

void OptimizedBackend::DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                                             const Tensor& output,
                                             const Tensor& out_grad,
                                             Tensor& in_grad,
                                             float param) const {
  if (!kernels_->accumulate_unary_grad(op, input, output, out_grad,
                                       in_grad)) {
    ReferenceBackend::DoAccumulateUnaryGrad(op, input, output, out_grad,
                                            in_grad, param);
  }
}

void OptimizedBackend::DoAddRowBroadcastInto(const Tensor& a,
                                             const Tensor& bias,
                                             Tensor& out) const {
  kernels_->add_row_broadcast_into(a, bias, out);
}

void OptimizedBackend::DoAccumulateColumnSums(const Tensor& a,
                                              Tensor& out_row) const {
  kernels_->accumulate_column_sums(a, out_row);
}

void OptimizedBackend::DoAccumulateColumnBlock(const Tensor& src,
                                               int src_col_offset,
                                               Tensor& dest,
                                               int dest_col_offset,
                                               int num_cols) const {
  kernels_->accumulate_column_block(src, src_col_offset, dest,
                                    dest_col_offset, num_cols);
}

void OptimizedBackend::DoGatherRowsAcc(const Tensor& table,
                                       const std::vector<int>& indices,
                                       Tensor& out,
                                       int out_col_offset) const {
  const int width = table.cols();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const float* __restrict__ source = table.row_data(indices[i]);
    float* __restrict__ dest =
        out.row_data(static_cast<int>(i)) + out_col_offset;
#pragma omp simd
    for (int c = 0; c < width; ++c) dest[c] += source[c];
  }
}

void OptimizedBackend::DoScatterAddRows(const Tensor& rows,
                                        const std::vector<int>& indices,
                                        Tensor& table,
                                        int rows_col_offset) const {
  const int width = table.cols();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const float* __restrict__ source =
        rows.row_data(static_cast<int>(i)) + rows_col_offset;
    float* __restrict__ dest = table.row_data(indices[i]);
#pragma omp simd
    for (int c = 0; c < width; ++c) dest[c] += source[c];
  }
}

void OptimizedBackend::DoLayerNormForward(
    const Tensor& x, const Tensor& gain, const Tensor& bias, float epsilon,
    Tensor& out, Tensor& normalized, std::vector<float>& inv_stddev) const {
  const bool keep_state = !inv_stddev.empty();
  kernels_->layer_norm_forward(x, gain, bias, epsilon, out,
                               keep_state ? &normalized : nullptr,
                               keep_state ? inv_stddev.data() : nullptr);
}

void OptimizedBackend::DoLayerNormBackward(
    const Tensor& out_grad, const Tensor& gain, const Tensor& normalized,
    const std::vector<float>& inv_stddev, Tensor* x_grad, Tensor* gain_grad,
    Tensor* bias_grad) const {
  kernels_->layer_norm_backward(out_grad, gain, normalized, inv_stddev,
                                x_grad, gain_grad, bias_grad);
}

}  // namespace granite::ml
