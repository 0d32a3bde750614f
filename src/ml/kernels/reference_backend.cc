#include "ml/kernels/reference_backend.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace granite::ml {

void ReferenceBackend::DoMatMulAcc(const Tensor& a, const Tensor& b,
                                   Tensor& out) const {
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  // i-k-j loop order keeps the inner loop streaming over contiguous rows of
  // `b`, which is the cache-friendly layout for row-major data. Each output
  // row's products are summed into a row of partials from +0 in ascending
  // k, and that row is added to `out` once (kernel_backend.h's rule).
  std::vector<float> partial(n);
  for (int i = 0; i < m; ++i) {
    const float* a_row = a.row_data(i);
    std::fill(partial.begin(), partial.end(), 0.0f);
    for (int p = 0; p < k; ++p) {
      const float a_value = a_row[p];
      const float* b_row = b.row_data(p);
      for (int j = 0; j < n; ++j) partial[j] += a_value * b_row[j];
    }
    float* out_row = out.row_data(i);
    for (int j = 0; j < n; ++j) out_row[j] += partial[j];
  }
}

void ReferenceBackend::DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  const int k = a.rows();
  const int m = a.cols();
  const int n = b.cols();
  for (int p = 0; p < k; ++p) {
    const float* a_row = a.row_data(p);
    const float* b_row = b.row_data(p);
    for (int i = 0; i < m; ++i) {
      const float a_value = a_row[i];
      float* out_row = out.row_data(i);
      for (int j = 0; j < n; ++j) out_row[j] += a_value * b_row[j];
    }
  }
}

void ReferenceBackend::DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                             Tensor& out) const {
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  for (int i = 0; i < m; ++i) {
    const float* a_row = a.row_data(i);
    float* out_row = out.row_data(i);
    for (int j = 0; j < n; ++j) {
      const float* b_row = b.row_data(j);
      float sum = 0.0f;
      for (int p = 0; p < k; ++p) sum += a_row[p] * b_row[p];
      out_row[j] += sum;
    }
  }
}

void ReferenceBackend::DoLinearBias(const Tensor& a, const Tensor& w,
                                    const Tensor& bias, Tensor& out) const {
  const float* bias_row = bias.row_data(0);
  for (int r = 0; r < out.rows(); ++r) {
    float* out_row = out.row_data(r);
    for (int c = 0; c < out.cols(); ++c) out_row[c] = bias_row[c];
  }
  DoMatMulAcc(a, w, out);
}

void ReferenceBackend::DoBinaryPointwise(BinaryOp op, const Tensor& a,
                                         const Tensor& b, Tensor& out) const {
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::size_t n = out.size();
  switch (op) {
    case BinaryOp::kAdd:
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
      break;
    case BinaryOp::kSub:
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
      break;
    case BinaryOp::kMul:
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
      break;
    case BinaryOp::kDiv:
      for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] / pb[i];
      break;
  }
}

void ReferenceBackend::DoScaleInto(const Tensor& a, float factor,
                                   Tensor& out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = a.data()[i] * factor;
  }
}

void ReferenceBackend::DoAddScalarInto(const Tensor& a, float constant,
                                       Tensor& out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = a.data()[i] + constant;
  }
}

void ReferenceBackend::DoAccumulateAdd(const Tensor& a, Tensor& out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += a.data()[i];
}

void ReferenceBackend::DoAccumulateScaled(const Tensor& a, float factor,
                                          Tensor& out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] += a.data()[i] * factor;
  }
}

void ReferenceBackend::DoAccumulateMul(const Tensor& a, const Tensor& b,
                                       Tensor& out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] += a.data()[i] * b.data()[i];
  }
}

void ReferenceBackend::DoAccumulateConstant(float constant,
                                            Tensor& out) const {
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += constant;
}

void ReferenceBackend::DoUnaryForward(UnaryOp op, const Tensor& in,
                                      Tensor& out, float param) const {
  const float* pi = in.data();
  float* po = out.data();
  const std::size_t n = out.size();
  switch (op) {
    case UnaryOp::kRelu:
      for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
      break;
    case UnaryOp::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        po[i] = 1.0f / (1.0f + std::exp(-pi[i]));
      }
      break;
    case UnaryOp::kTanh:
      for (std::size_t i = 0; i < n; ++i) po[i] = std::tanh(pi[i]);
      break;
    case UnaryOp::kAbs:
      for (std::size_t i = 0; i < n; ++i) po[i] = std::abs(pi[i]);
      break;
    case UnaryOp::kSquare:
      for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] * pi[i];
      break;
    case UnaryOp::kHuber:
      for (std::size_t i = 0; i < n; ++i) {
        const float absolute = std::abs(pi[i]);
        po[i] = absolute <= param ? 0.5f * pi[i] * pi[i]
                                  : param * (absolute - 0.5f * param);
      }
      break;
  }
}

void ReferenceBackend::DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                                             const Tensor& output,
                                             const Tensor& out_grad,
                                             Tensor& in_grad,
                                             float param) const {
  const float* px = input.data();
  const float* py = output.data();
  const float* pg = out_grad.data();
  float* pd = in_grad.data();
  const std::size_t n = in_grad.size();
  switch (op) {
    case UnaryOp::kRelu:
      for (std::size_t i = 0; i < n; ++i) pd[i] += px[i] > 0.0f ? pg[i] : 0.0f;
      break;
    case UnaryOp::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        pd[i] += pg[i] * py[i] * (1.0f - py[i]);
      }
      break;
    case UnaryOp::kTanh:
      for (std::size_t i = 0; i < n; ++i) {
        pd[i] += pg[i] * (1.0f - py[i] * py[i]);
      }
      break;
    case UnaryOp::kAbs:
      for (std::size_t i = 0; i < n; ++i) {
        // The derivative at 0 is taken as 0.
        const float sign =
            px[i] > 0.0f ? 1.0f : (px[i] < 0.0f ? -1.0f : 0.0f);
        pd[i] += pg[i] * sign;
      }
      break;
    case UnaryOp::kSquare:
      for (std::size_t i = 0; i < n; ++i) pd[i] += pg[i] * 2.0f * px[i];
      break;
    case UnaryOp::kHuber:
      for (std::size_t i = 0; i < n; ++i) {
        // x inside the quadratic region, else param * sign(x).
        float derivative = px[i];
        if (derivative > param) derivative = param;
        if (derivative < -param) derivative = -param;
        pd[i] += pg[i] * derivative;
      }
      break;
  }
}

void ReferenceBackend::DoAddRowBroadcastInto(const Tensor& a,
                                             const Tensor& bias,
                                             Tensor& out) const {
  const float* bias_row = bias.row_data(0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* a_row = a.row_data(r);
    float* out_row = out.row_data(r);
    for (int c = 0; c < a.cols(); ++c) out_row[c] = a_row[c] + bias_row[c];
  }
}

void ReferenceBackend::DoAccumulateColumnSums(const Tensor& a,
                                              Tensor& out_row) const {
  float* sums = out_row.row_data(0);
  for (int r = 0; r < a.rows(); ++r) {
    const float* row = a.row_data(r);
    for (int c = 0; c < a.cols(); ++c) sums[c] += row[c];
  }
}

void ReferenceBackend::DoMulColumnBroadcastInto(const Tensor& a,
                                                const Tensor& column,
                                                Tensor& out) const {
  for (int r = 0; r < a.rows(); ++r) {
    const float scale = column.at(r, 0);
    const float* source = a.row_data(r);
    float* dest = out.row_data(r);
    for (int c = 0; c < a.cols(); ++c) dest[c] = source[c] * scale;
  }
}

void ReferenceBackend::DoAccumulateMulColumnBroadcast(const Tensor& a,
                                                      const Tensor& column,
                                                      Tensor& out) const {
  for (int r = 0; r < a.rows(); ++r) {
    const float scale = column.at(r, 0);
    const float* source = a.row_data(r);
    float* dest = out.row_data(r);
    for (int c = 0; c < a.cols(); ++c) dest[c] += source[c] * scale;
  }
}

void ReferenceBackend::DoAccumulateRowDots(const Tensor& a, const Tensor& b,
                                           Tensor& out_column) const {
  for (int r = 0; r < a.rows(); ++r) {
    const float* a_row = a.row_data(r);
    const float* b_row = b.row_data(r);
    float total = 0.0f;
    for (int c = 0; c < a.cols(); ++c) total += a_row[c] * b_row[c];
    out_column.at(r, 0) += total;
  }
}

double ReferenceBackend::DoSumAll(const Tensor& a) const {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a.data()[i];
  return total;
}

void ReferenceBackend::DoGatherRowsAcc(const Tensor& table,
                                       const std::vector<int>& indices,
                                       Tensor& out,
                                       int out_col_offset) const {
  const int width = table.cols();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const float* source = table.row_data(indices[i]);
    float* dest = out.row_data(static_cast<int>(i)) + out_col_offset;
    for (int c = 0; c < width; ++c) dest[c] += source[c];
  }
}

void ReferenceBackend::DoScatterAddRows(const Tensor& rows,
                                        const std::vector<int>& indices,
                                        Tensor& table,
                                        int rows_col_offset) const {
  const int width = table.cols();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const float* source = rows.row_data(static_cast<int>(i)) + rows_col_offset;
    float* dest = table.row_data(indices[i]);
    for (int c = 0; c < width; ++c) dest[c] += source[c];
  }
}

void ReferenceBackend::DoAccumulateColumnBlock(const Tensor& src,
                                               int src_col_offset,
                                               Tensor& dest,
                                               int dest_col_offset,
                                               int num_cols) const {
  for (int r = 0; r < src.rows(); ++r) {
    const float* source = src.row_data(r) + src_col_offset;
    float* target = dest.row_data(r) + dest_col_offset;
    for (int c = 0; c < num_cols; ++c) target[c] += source[c];
  }
}

void ReferenceBackend::DoLayerNormForward(
    const Tensor& x, const Tensor& gain, const Tensor& bias, float epsilon,
    Tensor& out, Tensor& normalized, std::vector<float>& inv_stddev) const {
  const int rows = x.rows();
  const int cols = x.cols();
  const float* gain_row = gain.row_data(0);
  const float* bias_row = bias.row_data(0);
  const bool keep_state = !inv_stddev.empty();
  for (int r = 0; r < rows; ++r) {
    const float* x_row = x.row_data(r);
    double mean = 0.0;
    for (int c = 0; c < cols; ++c) mean += x_row[c];
    mean /= cols;
    double variance = 0.0;
    for (int c = 0; c < cols; ++c) {
      const double centered = x_row[c] - mean;
      variance += centered * centered;
    }
    variance /= cols;
    const float inv = 1.0f / std::sqrt(static_cast<float>(variance) + epsilon);
    // Empty backward state (inference) is left unwritten.
    float* norm_row = keep_state ? normalized.row_data(r) : nullptr;
    if (keep_state) inv_stddev[r] = inv;
    float* out_row = out.row_data(r);
    for (int c = 0; c < cols; ++c) {
      const float norm = (x_row[c] - static_cast<float>(mean)) * inv;
      if (keep_state) norm_row[c] = norm;
      out_row[c] = norm * gain_row[c] + bias_row[c];
    }
  }
}

void ReferenceBackend::DoLayerNormBackward(
    const Tensor& out_grad, const Tensor& gain, const Tensor& normalized,
    const std::vector<float>& inv_stddev, Tensor* x_grad, Tensor* gain_grad,
    Tensor* bias_grad) const {
  const int rows = out_grad.rows();
  const int cols = out_grad.cols();
  const float* gain_row = gain.row_data(0);
  for (int r = 0; r < rows; ++r) {
    const float* g_row = out_grad.row_data(r);
    const float* n_row = normalized.row_data(r);
    if (bias_grad != nullptr) {
      float* b_grad = bias_grad->row_data(0);
      for (int c = 0; c < cols; ++c) b_grad[c] += g_row[c];
    }
    if (gain_grad != nullptr) {
      float* g_grad = gain_grad->row_data(0);
      for (int c = 0; c < cols; ++c) g_grad[c] += g_row[c] * n_row[c];
    }
    if (x_grad != nullptr) {
      // dL/dxhat = dL/dy * gain. Then the standard layer-norm backward:
      // dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * inv_stddev.
      double mean_dxhat = 0.0;
      double mean_dxhat_xhat = 0.0;
      for (int c = 0; c < cols; ++c) {
        const double dxhat = static_cast<double>(g_row[c]) * gain_row[c];
        mean_dxhat += dxhat;
        mean_dxhat_xhat += dxhat * n_row[c];
      }
      mean_dxhat /= cols;
      mean_dxhat_xhat /= cols;
      float* dx_row = x_grad->row_data(r);
      for (int c = 0; c < cols; ++c) {
        const double dxhat = static_cast<double>(g_row[c]) * gain_row[c];
        dx_row[c] += static_cast<float>(
            (dxhat - mean_dxhat - n_row[c] * mean_dxhat_xhat) * inv_stddev[r]);
      }
    }
  }
}

}  // namespace granite::ml
