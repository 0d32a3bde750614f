/**
 * @file
 * The kernel dispatch layer: *what* a math op means, separated from *how*
 * a backend executes it.
 *
 * Every heavy loop of the ML stack — the autodiff tape's forward ops and
 * backward accumulations, the MLP/LSTM layers and the graph-network
 * aggregations — routes through a KernelBackend. Two implementations
 * ship:
 *
 *  - ReferenceBackend: plain scalar loops that spell out each kernel's
 *    summation order, the correctness oracle for the equivalence suite.
 *  - OptimizedBackend: register-tiled, transpose-aware MatMul
 *    micro-kernels with vectorizable inner loops, fused AXPY/scale/bias
 *    kernels and a row-interleaved LayerNorm. Its hot loops are compiled
 *    for the x86-64 baseline and for AVX2; the backend picks one copy at
 *    startup from CPUID.
 *
 * Both backends give the same bits for every kernel: each product and
 * sum is rounded on its own, nothing fuses a multiply-add, and every
 * reduction follows one order. For MatMulAcc, MatMulTransposeBAcc and
 * LinearBias that order is: each output element's products are summed
 * into a float from +0 in ascending k, and that partial is added once
 * into the accumulator (for LinearBias, into the bias). MatMulTransposeAAcc
 * adds each product into the accumulator in turn, in ascending k.
 *
 * Every kernel call runs on the calling thread; parallelism lives above
 * this layer (the trainer's data-parallel shards, the server's shard
 * threads), each tape running single-threaded.
 *
 * Backend selection is plumbed through TrainerConfig::kernel_backend and
 * GraniteConfig::kernel_backend; the process-wide default is the
 * optimized backend unless code installs another with
 * SetDefaultKernelBackend. Nothing selects a backend by name or from the
 * environment: tests and benches pick the reference backend in code,
 * through a `kernel_backend` config field, an explicit Tape backend or
 * SetDefaultKernelBackend.
 *
 * Interface convention: `*Into` methods overwrite their output, `*Acc` /
 * `Accumulate*` methods add into it. Outputs must be preallocated with
 * the documented shape; shapes are validated once here (non-virtual
 * interface), so backend implementations can stay check-free and tight.
 *
 * A kernel that "writes `out` through" (the `*Into` kernels, LinearBias,
 * BinaryPointwise, UnaryForward and LayerNormForward) assigns every
 * element of its output before any read of it, in every backend and ISA
 * copy. Its output may therefore start uninitialized: arena-backed
 * tapes hand these kernels unfilled arena memory (ml/tape_arena.h), and
 * a new backend must keep the rule. LayerNormForward writes its
 * `normalized` state through too. The accumulating kernels need a
 * zero-filled output to compute a plain product, gather or sum.
 */
#ifndef GRANITE_ML_KERNELS_KERNEL_BACKEND_H_
#define GRANITE_ML_KERNELS_KERNEL_BACKEND_H_

#include <vector>

#include "ml/tensor.h"

namespace granite::ml {

/** Selects a kernel backend in configuration structs. */
enum class KernelBackendKind {
  /** The process-wide default (optimized unless overridden). */
  kDefault,
  /** The plain scalar loops; the correctness oracle. */
  kReference,
  /** Tiled/SIMD kernels; the fast path. */
  kOptimized,
};

/** Element-wise unary transforms executed by a backend. */
enum class UnaryOp { kRelu, kSigmoid, kTanh, kAbs, kSquare, kHuber };

/** Element-wise binary transforms executed by a backend. */
enum class BinaryOp { kAdd, kSub, kMul, kDiv };

/**
 * Executes dense math kernels on the calling thread. Implementations
 * must be stateless with respect to calls (safe for concurrent use from
 * many threads).
 */
class KernelBackend {
 public:
  virtual ~KernelBackend();

  /** Human-readable backend name for logs and bench tables. */
  virtual const char* name() const = 0;

  // ---- MatMul family (accumulating; zero-fill `out` for a product) ------

  /** out += A[m,k] * B[k,n]. */
  void MatMulAcc(const Tensor& a, const Tensor& b, Tensor& out) const;

  /** out += A^T * B. A is [k,m], B is [k,n], out is [m,n]. */
  void MatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                           Tensor& out) const;

  /** out += A * B^T. A is [m,k], B is [n,k], out is [m,n]. */
  void MatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                           Tensor& out) const;

  /** Fused linear layer: out = A[m,k] * W[k,n] + bias[1,n] (broadcast).
   * Writes `out` through. */
  void LinearBias(const Tensor& a, const Tensor& w, const Tensor& bias,
                  Tensor& out) const;

  // ---- Element-wise ------------------------------------------------------

  /** out = a (op) b; all three tensors share one shape. Writes `out`
   * through. */
  void BinaryPointwise(BinaryOp op, const Tensor& a, const Tensor& b,
                       Tensor& out) const;

  /** out = a * factor. */
  void ScaleInto(const Tensor& a, float factor, Tensor& out) const;

  /** out = a + constant. */
  void AddScalarInto(const Tensor& a, float constant, Tensor& out) const;

  /** out += a. */
  void AccumulateAdd(const Tensor& a, Tensor& out) const;

  /** out += a * factor (AXPY). */
  void AccumulateScaled(const Tensor& a, float factor, Tensor& out) const;

  /** out += a (.) b (fused multiply-accumulate, Hadamard). */
  void AccumulateMul(const Tensor& a, const Tensor& b, Tensor& out) const;

  /** out += constant, element-wise. */
  void AccumulateConstant(float constant, Tensor& out) const;

  /**
   * out = op(in), element-wise, written through. `param` is the op's
   * scalar parameter (Huber delta); ignored by parameterless ops.
   */
  void UnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                    float param = 0.0f) const;

  /**
   * in_grad += d op / d in * out_grad for an element-wise unary op.
   * `input` is the op's forward input, `output` its forward output; each
   * op reads whichever it needs (e.g. sigmoid/tanh use the output).
   */
  void AccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                           const Tensor& output, const Tensor& out_grad,
                           Tensor& in_grad, float param = 0.0f) const;

  // ---- Broadcasts and reductions -----------------------------------------

  /** out = a + bias[1,n] broadcast over rows. */
  void AddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                           Tensor& out) const;

  /** out_row[0,c] += sum over rows of a[r,c] (bias gradients). */
  void AccumulateColumnSums(const Tensor& a, Tensor& out_row) const;

  /** out = a[r,c] * column[r,0] (row-wise scaling by a column). */
  void MulColumnBroadcastInto(const Tensor& a, const Tensor& column,
                              Tensor& out) const;

  /** out += a[r,c] * column[r,0]. */
  void AccumulateMulColumnBroadcast(const Tensor& a, const Tensor& column,
                                    Tensor& out) const;

  /** out_column[r,0] += dot(a row r, b row r). */
  void AccumulateRowDots(const Tensor& a, const Tensor& b,
                         Tensor& out_column) const;

  /** Sum of all elements, accumulated as a double. */
  double SumAll(const Tensor& a) const;

  // ---- Structure ops (gather / scatter / concat) -------------------------

  /**
   * out[i, offset:offset+table.cols()] += table[indices[i], :] for every
   * i. With a zero-filled `out` and offset 0 this is a plain row gather;
   * nonzero offsets write one column block of a concatenated output.
   */
  void GatherRowsAcc(const Tensor& table, const std::vector<int>& indices,
                     Tensor& out, int out_col_offset = 0) const;

  /**
   * table[indices[i], :] += rows[i, offset:offset+table.cols()] for every
   * i; the adjoint of GatherRowsAcc, and (with offset 0) the segment-sum
   * forward kernel when `indices` holds segment ids.
   */
  void ScatterAddRows(const Tensor& rows, const std::vector<int>& indices,
                      Tensor& table, int rows_col_offset = 0) const;

  /**
   * dest[:, dest_off:dest_off+num_cols] += src[:, src_off:src_off+num_cols]
   * (column-block copy/accumulate used by ConcatCols and its adjoint).
   */
  void AccumulateColumnBlock(const Tensor& src, int src_col_offset,
                             Tensor& dest, int dest_col_offset,
                             int num_cols) const;

  // ---- Layer normalization -----------------------------------------------

  /**
   * Per-row layer norm: out = gain * (x - mean) / sqrt(var + eps) + bias.
   * Also writes the normalized activations and per-row inverse stddev,
   * which the backward kernel consumes. gain/bias are [1, cols];
   * `normalized` has x's shape and `inv_stddev` x.rows() entries, or both
   * are empty when no backward pass follows (inference), and then only
   * `out` is written. Writes `out` through.
   */
  void LayerNormForward(const Tensor& x, const Tensor& gain,
                        const Tensor& bias, float epsilon, Tensor& out,
                        Tensor& normalized,
                        std::vector<float>& inv_stddev) const;

  /**
   * Layer-norm backward from `out_grad`; accumulates into any non-null
   * gradient output (x_grad [rows,cols], gain_grad / bias_grad [1,cols]).
   */
  void LayerNormBackward(const Tensor& out_grad, const Tensor& gain,
                         const Tensor& normalized,
                         const std::vector<float>& inv_stddev,
                         Tensor* x_grad, Tensor* gain_grad,
                         Tensor* bias_grad) const;

 protected:
  // Implementation hooks; shapes are already validated by the public
  // wrappers above.
  virtual void DoMatMulAcc(const Tensor& a, const Tensor& b,
                           Tensor& out) const = 0;
  virtual void DoMatMulTransposeAAcc(const Tensor& a, const Tensor& b,
                                     Tensor& out) const = 0;
  virtual void DoMatMulTransposeBAcc(const Tensor& a, const Tensor& b,
                                     Tensor& out) const = 0;
  virtual void DoLinearBias(const Tensor& a, const Tensor& w,
                            const Tensor& bias, Tensor& out) const = 0;
  virtual void DoBinaryPointwise(BinaryOp op, const Tensor& a,
                                 const Tensor& b, Tensor& out) const = 0;
  virtual void DoScaleInto(const Tensor& a, float factor,
                           Tensor& out) const = 0;
  virtual void DoAddScalarInto(const Tensor& a, float constant,
                               Tensor& out) const = 0;
  virtual void DoAccumulateAdd(const Tensor& a, Tensor& out) const = 0;
  virtual void DoAccumulateScaled(const Tensor& a, float factor,
                                  Tensor& out) const = 0;
  virtual void DoAccumulateMul(const Tensor& a, const Tensor& b,
                               Tensor& out) const = 0;
  virtual void DoAccumulateConstant(float constant, Tensor& out) const = 0;
  virtual void DoUnaryForward(UnaryOp op, const Tensor& in, Tensor& out,
                              float param) const = 0;
  virtual void DoAccumulateUnaryGrad(UnaryOp op, const Tensor& input,
                                     const Tensor& output,
                                     const Tensor& out_grad, Tensor& in_grad,
                                     float param) const = 0;
  virtual void DoAddRowBroadcastInto(const Tensor& a, const Tensor& bias,
                                     Tensor& out) const = 0;
  virtual void DoAccumulateColumnSums(const Tensor& a,
                                      Tensor& out_row) const = 0;
  virtual void DoMulColumnBroadcastInto(const Tensor& a,
                                        const Tensor& column,
                                        Tensor& out) const = 0;
  virtual void DoAccumulateMulColumnBroadcast(const Tensor& a,
                                              const Tensor& column,
                                              Tensor& out) const = 0;
  virtual void DoAccumulateRowDots(const Tensor& a, const Tensor& b,
                                   Tensor& out_column) const = 0;
  virtual double DoSumAll(const Tensor& a) const = 0;
  virtual void DoGatherRowsAcc(const Tensor& table,
                               const std::vector<int>& indices, Tensor& out,
                               int out_col_offset) const = 0;
  virtual void DoScatterAddRows(const Tensor& rows,
                                const std::vector<int>& indices,
                                Tensor& table, int rows_col_offset) const = 0;
  virtual void DoAccumulateColumnBlock(const Tensor& src, int src_col_offset,
                                       Tensor& dest, int dest_col_offset,
                                       int num_cols) const = 0;
  virtual void DoLayerNormForward(const Tensor& x, const Tensor& gain,
                                  const Tensor& bias, float epsilon,
                                  Tensor& out, Tensor& normalized,
                                  std::vector<float>& inv_stddev) const = 0;
  virtual void DoLayerNormBackward(const Tensor& out_grad, const Tensor& gain,
                                   const Tensor& normalized,
                                   const std::vector<float>& inv_stddev,
                                   Tensor* x_grad, Tensor* gain_grad,
                                   Tensor* bias_grad) const = 0;
};

/**
 * Returns the shared (thread-safe) backend of `kind`; kDefault resolves
 * through DefaultKernelBackend().
 */
const KernelBackend& GetKernelBackend(KernelBackendKind kind);

/**
 * The process-wide default backend used by default-constructed tapes: a
 * backend installed via SetDefaultKernelBackend, else the optimized
 * backend.
 */
const KernelBackend& DefaultKernelBackend();

/**
 * Installs a process-wide default backend (nullptr restores the
 * optimized backend). The backend must outlive all subsequent kernel calls;
 * intended for tests and experiment drivers, not for concurrent
 * reconfiguration while kernels are running.
 */
void SetDefaultKernelBackend(const KernelBackend* backend);

}  // namespace granite::ml

#endif  // GRANITE_ML_KERNELS_KERNEL_BACKEND_H_
