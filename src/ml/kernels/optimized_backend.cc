#include "ml/kernels/optimized_backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/thread_pool.h"

namespace granite::ml {
namespace {

// Micro-kernel tile sizes. kMr rows of the output are computed at once
// against kNr-column slivers of B, so each B row load is reused kMr times
// and the kMr x kNr accumulator block is reused across the whole k loop
// (4 x 16 floats: 8 AVX2 registers, but at the baseline SSE ISA GCC keeps
// it in a stack array that stays in L1).
constexpr int kMr = 4;
constexpr int kNr = 16;
// The A^T * B tile is kMr x 8 with no k-blocking: 8 SSE registers of
// accumulators at the baseline ISA, loaded from and stored to `out` once.
constexpr int kNrTransposeA = 8;
// k-blocking keeps the active B panel (kKc rows x kNr columns of cache
// lines) resident in L1/L2 while it is swept once per output row tile.
constexpr int kKc = 256;
// LayerNorm rows interleaved per pass: enough independent double-add
// chains to cover the add latency. The row loops carry `#pragma GCC
// unroll 4` because -O2 keeps a rolled loop's per-row sums in memory,
// which puts a store-to-load round trip back into every chain.
constexpr int kLayerNormRows = 4;

/** out[i0:i1) += A * B restricted to a row range of the output. */
void MatMulRowRange(const Tensor& a, const Tensor& b, Tensor& out, int i0,
                    int i1) {
  const int k = a.cols();
  const int n = b.cols();
  const int n_main = n - n % kNr;
  for (int p0 = 0; p0 < k; p0 += kKc) {
    const int p1 = std::min(p0 + kKc, k);
    int i = i0;
    for (; i + kMr <= i1; i += kMr) {
      const float* __restrict__ a0 = a.row_data(i + 0);
      const float* __restrict__ a1 = a.row_data(i + 1);
      const float* __restrict__ a2 = a.row_data(i + 2);
      const float* __restrict__ a3 = a.row_data(i + 3);
      float* __restrict__ o0 = out.row_data(i + 0);
      float* __restrict__ o1 = out.row_data(i + 1);
      float* __restrict__ o2 = out.row_data(i + 2);
      float* __restrict__ o3 = out.row_data(i + 3);
      for (int j0 = 0; j0 < n_main; j0 += kNr) {
        float acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
#pragma omp simd
        for (int jj = 0; jj < kNr; ++jj) {
          acc0[jj] = 0.0f;
          acc1[jj] = 0.0f;
          acc2[jj] = 0.0f;
          acc3[jj] = 0.0f;
        }
        for (int p = p0; p < p1; ++p) {
          const float* __restrict__ b_row = b.row_data(p) + j0;
          const float v0 = a0[p];
          const float v1 = a1[p];
          const float v2 = a2[p];
          const float v3 = a3[p];
#pragma omp simd
          for (int jj = 0; jj < kNr; ++jj) {
            const float bv = b_row[jj];
            acc0[jj] += v0 * bv;
            acc1[jj] += v1 * bv;
            acc2[jj] += v2 * bv;
            acc3[jj] += v3 * bv;
          }
        }
#pragma omp simd
        for (int jj = 0; jj < kNr; ++jj) {
          o0[j0 + jj] += acc0[jj];
          o1[j0 + jj] += acc1[jj];
          o2[j0 + jj] += acc2[jj];
          o3[j0 + jj] += acc3[jj];
        }
      }
      // Column remainder: axpy over the trailing n % kNr columns.
      if (n_main < n) {
        for (int p = p0; p < p1; ++p) {
          const float* __restrict__ b_row = b.row_data(p);
          const float v0 = a0[p];
          const float v1 = a1[p];
          const float v2 = a2[p];
          const float v3 = a3[p];
#pragma omp simd
          for (int j = n_main; j < n; ++j) {
            const float bv = b_row[j];
            o0[j] += v0 * bv;
            o1[j] += v1 * bv;
            o2[j] += v2 * bv;
            o3[j] += v3 * bv;
          }
        }
      }
    }
    // Row remainder: one row at a time, summed exactly like a row of a
    // full tile (a local sliver accumulator added to `out` once per
    // k-block, then the column-remainder axpy), so a row's bits do not
    // depend on its position in the batch or on how rows are sharded.
    for (; i < i1; ++i) {
      const float* __restrict__ a_row = a.row_data(i);
      float* __restrict__ o_row = out.row_data(i);
      for (int j0 = 0; j0 < n_main; j0 += kNr) {
        float acc[kNr];
#pragma omp simd
        for (int jj = 0; jj < kNr; ++jj) acc[jj] = 0.0f;
        for (int p = p0; p < p1; ++p) {
          const float* __restrict__ b_row = b.row_data(p) + j0;
          const float v = a_row[p];
#pragma omp simd
          for (int jj = 0; jj < kNr; ++jj) acc[jj] += v * b_row[jj];
        }
#pragma omp simd
        for (int jj = 0; jj < kNr; ++jj) o_row[j0 + jj] += acc[jj];
      }
      if (n_main < n) {
        for (int p = p0; p < p1; ++p) {
          const float v = a_row[p];
          const float* __restrict__ b_row = b.row_data(p);
#pragma omp simd
          for (int j = n_main; j < n; ++j) o_row[j] += v * b_row[j];
        }
      }
    }
  }
}

/**
 * out[i0:i0+R) += A^T * B over the kNrTransposeA-column sliver at j0 (rows
 * of the output are columns of A). The R x kNrTransposeA tile is loaded
 * from `out`, runs every k row in ascending order and is stored once, so
 * each element is summed from its starting value in the reference
 * backend's order. Every tile loop is fully unrolled rather than marked
 * `omp simd`: with constant indices the tile is scalarized and the SLP
 * vectorizer packs it into registers for the whole k loop, where a
 * vectorized inner loop would keep it in a stack array.
 */
template <int R>
void MatMulTransposeATile(const Tensor& a, const Tensor& b, Tensor& out,
                          int i0, int j0) {
  const int k = a.rows();
  float* o_rows[R];
  float acc[R][kNrTransposeA];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    o_rows[r] = out.row_data(i0 + r) + j0;
#pragma GCC unroll 8
    for (int jj = 0; jj < kNrTransposeA; ++jj) acc[r][jj] = o_rows[r][jj];
  }
  for (int p = 0; p < k; ++p) {
    const float* __restrict__ a_row = a.row_data(p) + i0;
    const float* __restrict__ b_row = b.row_data(p) + j0;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float v = a_row[r];
#pragma GCC unroll 8
      for (int jj = 0; jj < kNrTransposeA; ++jj) acc[r][jj] += v * b_row[jj];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int jj = 0; jj < kNrTransposeA; ++jj) o_rows[r][jj] = acc[r][jj];
  }
}

/** out[i0:i1) += A^T * B restricted to a row range of the output. */
void MatMulTransposeARowRange(const Tensor& a, const Tensor& b, Tensor& out,
                              int i0, int i1) {
  const int k = a.rows();
  const int n = b.cols();
  const int n_main = n - n % kNrTransposeA;
  int i = i0;
  for (; i + kMr <= i1; i += kMr) {
    for (int j0 = 0; j0 < n_main; j0 += kNrTransposeA) {
      MatMulTransposeATile<kMr>(a, b, out, i, j0);
    }
  }
  for (; i < i1; ++i) {
    for (int j0 = 0; j0 < n_main; j0 += kNrTransposeA) {
      MatMulTransposeATile<1>(a, b, out, i, j0);
    }
  }
  if (n_main == n) return;
  // Column remainder: the reference's p-outer loop with its zero skip.
  for (int p = 0; p < k; ++p) {
    const float* __restrict__ a_row = a.row_data(p);
    const float* __restrict__ b_row = b.row_data(p);
    for (int r = i0; r < i1; ++r) {
      const float v = a_row[r];
      if (v == 0.0f) continue;
      float* __restrict__ o_row = out.row_data(r);
      for (int j = n_main; j < n; ++j) o_row[j] += v * b_row[j];
    }
  }
}

/**
 * LayerNorm forward over R consecutive rows starting at r0. Each row keeps
 * its own double sums in ascending column order, exactly as the reference
 * loop computes them, so interleaving R rows breaks the add-latency chain
 * without changing a bit; the element-wise finish is a SIMD loop with no
 * reassociation.
 */
template <int R>
void LayerNormForwardRows(const Tensor& x, const float* gain_row,
                          const float* bias_row, float epsilon, Tensor& out,
                          Tensor& normalized, std::vector<float>& inv_stddev,
                          int r0) {
  const int cols = x.cols();
  const float* x_rows[R];
  for (int r = 0; r < R; ++r) x_rows[r] = x.row_data(r0 + r);
  double mean[R] = {};
  for (int c = 0; c < cols; ++c) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) mean[r] += x_rows[r][c];
  }
  for (int r = 0; r < R; ++r) mean[r] /= cols;
  double variance[R] = {};
  for (int c = 0; c < cols; ++c) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double centered = x_rows[r][c] - mean[r];
      variance[r] += centered * centered;
    }
  }
  for (int r = 0; r < R; ++r) {
    variance[r] /= cols;
    const float inv =
        1.0f / std::sqrt(static_cast<float>(variance[r]) + epsilon);
    inv_stddev[r0 + r] = inv;
    const float row_mean = static_cast<float>(mean[r]);
    const float* __restrict__ x_row = x_rows[r];
    float* __restrict__ norm_row = normalized.row_data(r0 + r);
    float* __restrict__ out_row = out.row_data(r0 + r);
#pragma omp simd
    for (int c = 0; c < cols; ++c) {
      const float norm = (x_row[c] - row_mean) * inv;
      norm_row[c] = norm;
      out_row[c] = norm * gain_row[c] + bias_row[c];
    }
  }
}

/**
 * LayerNorm backward over R consecutive rows starting at r0, bit-identical
 * to the reference: gain/bias grads add the rows in ascending order per
 * column, and each row's two dx sums keep their own ascending-column
 * double chains.
 */
template <int R>
void LayerNormBackwardRows(const Tensor& out_grad, const float* gain_row,
                           const Tensor& normalized,
                           const std::vector<float>& inv_stddev,
                           Tensor* x_grad, float* gain_grad, float* bias_grad,
                           int r0) {
  const int cols = out_grad.cols();
  const float* g_rows[R];
  const float* n_rows[R];
  for (int r = 0; r < R; ++r) {
    g_rows[r] = out_grad.row_data(r0 + r);
    n_rows[r] = normalized.row_data(r0 + r);
  }
  if (bias_grad != nullptr) {
#pragma omp simd
    for (int c = 0; c < cols; ++c) {
      float sum = bias_grad[c];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) sum += g_rows[r][c];
      bias_grad[c] = sum;
    }
  }
  if (gain_grad != nullptr) {
#pragma omp simd
    for (int c = 0; c < cols; ++c) {
      float sum = gain_grad[c];
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) sum += g_rows[r][c] * n_rows[r][c];
      gain_grad[c] = sum;
    }
  }
  if (x_grad == nullptr) return;
  // dL/dxhat = dL/dy * gain. Then the standard layer-norm backward:
  // dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * inv_stddev.
  double mean_dxhat[R] = {};
  double mean_dxhat_xhat[R] = {};
  for (int c = 0; c < cols; ++c) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double dxhat = static_cast<double>(g_rows[r][c]) * gain_row[c];
      mean_dxhat[r] += dxhat;
      mean_dxhat_xhat[r] += dxhat * n_rows[r][c];
    }
  }
  for (int r = 0; r < R; ++r) {
    const double row_mean_dxhat = mean_dxhat[r] / cols;
    const double row_mean_dxhat_xhat = mean_dxhat_xhat[r] / cols;
    const float inv = inv_stddev[r0 + r];
    const float* __restrict__ g_row = g_rows[r];
    const float* __restrict__ n_row = n_rows[r];
    float* __restrict__ dx_row = x_grad->row_data(r0 + r);
#pragma omp simd
    for (int c = 0; c < cols; ++c) {
      const double dxhat = static_cast<double>(g_row[c]) * gain_row[c];
      dx_row[c] += static_cast<float>(
          (dxhat - row_mean_dxhat - n_row[c] * row_mean_dxhat_xhat) * inv);
    }
  }
}

}  // namespace

OptimizedBackend::OptimizedBackend(base::ThreadPool* pool,
                                   std::size_t parallel_flop_threshold,
                                   std::size_t parallel_element_threshold)
    : pool_(pool),
      parallel_flop_threshold_(parallel_flop_threshold),
      parallel_element_threshold_(parallel_element_threshold) {}

const char* OptimizedBackend::name() const {
  return pool_ != nullptr ? "optimized+pool" : "optimized";
}

void OptimizedBackend::ParallelOverRows(
    std::size_t flops, int rows,
    const std::function<void(int, int)>& fn) const {
  if (pool_ == nullptr || pool_->num_threads() <= 1 || rows < 2 ||
      flops < parallel_flop_threshold_) {
    fn(0, rows);
    return;
  }
  pool_->RunShards(0, static_cast<std::size_t>(rows),
                   [&fn](int /*shard*/, std::size_t begin, std::size_t end) {
                     if (begin < end) {
                       fn(static_cast<int>(begin), static_cast<int>(end));
                     }
                   });
}

void OptimizedBackend::DoMatMulAcc(const Tensor& a, const Tensor& b,
                                   Tensor& out) const {
  const std::size_t flops = 2u * static_cast<std::size_t>(a.rows()) *
                            static_cast<std::size_t>(a.cols()) *
                            static_cast<std::size_t>(b.cols());
  ParallelOverRows(flops, a.rows(), [&](int begin, int end) {
    MatMulRowRange(a, b, out, begin, end);
  });
}

void OptimizedBackend::DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  const std::size_t flops = 2u * static_cast<std::size_t>(a.rows()) *
                            static_cast<std::size_t>(a.cols()) *
                            static_cast<std::size_t>(b.cols());
  ParallelOverRows(flops, a.cols(), [&](int begin, int end) {
    MatMulTransposeARowRange(a, b, out, begin, end);
  });
}

void OptimizedBackend::DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  // B is the small operand on the training path (dX = dY * W^T), so pack
  // it transposed once, before any sharding, and run the plain product's
  // micro-kernel instead of short dot-product reductions.
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
  // accumulating blocked product — one pass over `out` less than a
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
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
  switch (op) {
    case BinaryOp::kAdd:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
      break;
    case BinaryOp::kSub:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
      break;
    case BinaryOp::kMul:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
      break;
    case BinaryOp::kDiv:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] / pb[i];
      break;
  }
}

void OptimizedBackend::DoScaleInto(const Tensor& a, float factor,
                                   Tensor& out) const {
  const float* __restrict__ pa = a.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] * factor;
}

void OptimizedBackend::DoAddScalarInto(const Tensor& a, float constant,
                                       Tensor& out) const {
  const float* __restrict__ pa = a.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + constant;
}

void OptimizedBackend::DoAccumulateAdd(const Tensor& a, Tensor& out) const {
  const float* __restrict__ pa = a.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) po[i] += pa[i];
}

void OptimizedBackend::DoAccumulateScaled(const Tensor& a, float factor,
                                          Tensor& out) const {
  const float* __restrict__ pa = a.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) po[i] += pa[i] * factor;
}

void OptimizedBackend::DoAccumulateMul(const Tensor& a, const Tensor& b,
                                       Tensor& out) const {
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) po[i] += pa[i] * pb[i];
}

void OptimizedBackend::DoUnaryForward(UnaryOp op, const Tensor& in,
                                      Tensor& out, float param) const {
  const float* __restrict__ pi = in.data();
  float* __restrict__ po = out.data();
  const std::size_t n = out.size();
  switch (op) {
    case UnaryOp::kRelu:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
      return;
    case UnaryOp::kAbs:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = std::abs(pi[i]);
      return;
    case UnaryOp::kSquare:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] * pi[i];
      return;
    default:
      // Transcendental maps (sigmoid/tanh) and Huber gain nothing from a
      // hand-tuned loop; reuse the reference implementation.
      ReferenceBackend::DoUnaryForward(op, in, out, param);
      return;
  }
}

void OptimizedBackend::DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                                             const Tensor& output,
                                             const Tensor& out_grad,
                                             Tensor& in_grad,
                                             float param) const {
  const float* __restrict__ px = input.data();
  const float* __restrict__ py = output.data();
  const float* __restrict__ pg = out_grad.data();
  float* __restrict__ pd = in_grad.data();
  const std::size_t n = in_grad.size();
  switch (op) {
    case UnaryOp::kRelu:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        pd[i] += px[i] > 0.0f ? pg[i] : 0.0f;
      }
      return;
    case UnaryOp::kSigmoid:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        pd[i] += pg[i] * py[i] * (1.0f - py[i]);
      }
      return;
    case UnaryOp::kTanh:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        pd[i] += pg[i] * (1.0f - py[i] * py[i]);
      }
      return;
    case UnaryOp::kSquare:
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) pd[i] += pg[i] * 2.0f * px[i];
      return;
    default:
      ReferenceBackend::DoAccumulateUnaryGrad(op, input, output, out_grad,
                                              in_grad, param);
      return;
  }
}

void OptimizedBackend::DoAddRowBroadcastInto(const Tensor& a,
                                             const Tensor& bias,
                                             Tensor& out) const {
  const float* __restrict__ bias_row = bias.row_data(0);
  const int cols = a.cols();
  for (int r = 0; r < a.rows(); ++r) {
    const float* __restrict__ a_row = a.row_data(r);
    float* __restrict__ out_row = out.row_data(r);
#pragma omp simd
    for (int c = 0; c < cols; ++c) out_row[c] = a_row[c] + bias_row[c];
  }
}

void OptimizedBackend::DoAccumulateColumnSums(const Tensor& a,
                                              Tensor& out_row) const {
  float* __restrict__ sums = out_row.row_data(0);
  const int cols = a.cols();
  for (int r = 0; r < a.rows(); ++r) {
    const float* __restrict__ row = a.row_data(r);
#pragma omp simd
    for (int c = 0; c < cols; ++c) sums[c] += row[c];
  }
}

int OptimizedBackend::PlannedShards(std::size_t elements,
                                    std::size_t rows) const {
  if (pool_ == nullptr || pool_->num_threads() <= 1 || rows < 2 ||
      elements < parallel_element_threshold_) {
    return 1;
  }
  return static_cast<int>(std::min(
      rows, static_cast<std::size_t>(pool_->num_threads())));
}

void OptimizedBackend::DoGatherRowsAcc(const Tensor& table,
                                       const std::vector<int>& indices,
                                       Tensor& out,
                                       int out_col_offset) const {
  const int width = table.cols();
  const auto gather_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const float* __restrict__ source = table.row_data(indices[i]);
      float* __restrict__ dest =
          out.row_data(static_cast<int>(i)) + out_col_offset;
#pragma omp simd
      for (int c = 0; c < width; ++c) dest[c] += source[c];
    }
  };
  const std::size_t elements =
      indices.size() * static_cast<std::size_t>(width);
  if (PlannedShards(elements, indices.size()) == 1) {
    gather_range(0, indices.size());
    return;
  }
  // Each output row is written by exactly one shard, so the parallel
  // path is bit-identical to the serial loop.
  pool_->RunShards(0, indices.size(),
                   [&gather_range](int, std::size_t begin, std::size_t end) {
                     gather_range(begin, end);
                   });
}

void OptimizedBackend::DoScatterAddRows(const Tensor& rows,
                                        const std::vector<int>& indices,
                                        Tensor& table,
                                        int rows_col_offset) const {
  const int width = table.cols();
  const std::size_t elements =
      indices.size() * static_cast<std::size_t>(width);
  const int shards =
      PlannedShards(elements, static_cast<std::size_t>(table.rows()));
  if (shards == 1) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const float* __restrict__ source =
          rows.row_data(static_cast<int>(i)) + rows_col_offset;
      float* __restrict__ dest = table.row_data(indices[i]);
#pragma omp simd
      for (int c = 0; c < width; ++c) dest[c] += source[c];
    }
    return;
  }
  // Scatter writes collide on duplicate indices, so parallelize by
  // coloring the *destination*: each shard owns a contiguous range of
  // table rows and scans the whole index list, applying only the
  // updates that land in its range. No two shards touch the same row,
  // and every destination row still accumulates its contributions in
  // ascending input order — bit-identical to the serial loop.
  const auto row_ranges = base::ThreadPool::PartitionRange(
      static_cast<std::size_t>(table.rows()), shards);
  pool_->RunShards(
      0, static_cast<std::size_t>(shards),
      [&](int, std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
          const std::size_t row_begin = row_ranges[s].first;
          const std::size_t row_end = row_ranges[s].second;
          for (std::size_t i = 0; i < indices.size(); ++i) {
            const std::size_t dest_row =
                static_cast<std::size_t>(indices[i]);
            if (dest_row < row_begin || dest_row >= row_end) continue;
            const float* __restrict__ source =
                rows.row_data(static_cast<int>(i)) + rows_col_offset;
            float* __restrict__ dest = table.row_data(indices[i]);
#pragma omp simd
            for (int c = 0; c < width; ++c) dest[c] += source[c];
          }
        }
      });
}

void OptimizedBackend::DoLayerNormForward(
    const Tensor& x, const Tensor& gain, const Tensor& bias, float epsilon,
    Tensor& out, Tensor& normalized, std::vector<float>& inv_stddev) const {
  const int rows = x.rows();
  const float* gain_row = gain.row_data(0);
  const float* bias_row = bias.row_data(0);
  int r = 0;
  for (; r + kLayerNormRows <= rows; r += kLayerNormRows) {
    LayerNormForwardRows<kLayerNormRows>(x, gain_row, bias_row, epsilon, out,
                                         normalized, inv_stddev, r);
  }
  for (; r < rows; ++r) {
    LayerNormForwardRows<1>(x, gain_row, bias_row, epsilon, out, normalized,
                            inv_stddev, r);
  }
}

void OptimizedBackend::DoLayerNormBackward(
    const Tensor& out_grad, const Tensor& gain, const Tensor& normalized,
    const std::vector<float>& inv_stddev, Tensor* x_grad, Tensor* gain_grad,
    Tensor* bias_grad) const {
  const int rows = out_grad.rows();
  const float* gain_row = gain.row_data(0);
  float* gain_sums = gain_grad != nullptr ? gain_grad->row_data(0) : nullptr;
  float* bias_sums = bias_grad != nullptr ? bias_grad->row_data(0) : nullptr;
  int r = 0;
  for (; r + kLayerNormRows <= rows; r += kLayerNormRows) {
    LayerNormBackwardRows<kLayerNormRows>(out_grad, gain_row, normalized,
                                          inv_stddev, x_grad, gain_sums,
                                          bias_sums, r);
  }
  for (; r < rows; ++r) {
    LayerNormBackwardRows<1>(out_grad, gain_row, normalized, inv_stddev,
                             x_grad, gain_sums, bias_sums, r);
  }
}

}  // namespace granite::ml
