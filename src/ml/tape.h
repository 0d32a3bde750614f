/**
 * @file
 * Tape-based reverse-mode automatic differentiation.
 *
 * A Tape records a dynamic computation graph: every operation appends a node
 * holding its output value and a backward closure that propagates adjoints
 * to its inputs. Calling Backward(loss) seeds the loss adjoint with 1 and
 * replays the tape in reverse. Gradients of Parameter leaves accumulate into
 * Parameter::grad, so one tape pass per batch plus an optimizer step yields
 * standard minibatch SGD/Adam training.
 *
 * The op set is exactly what the GRANITE GNN (gather / segment-sum /
 * concat / MLP / layer norm), the Ithemal LSTMs (sigmoid / tanh / masking)
 * and the paper's five loss functions (§5.2) require. Every op's gradient
 * is verified against central finite differences in tests/ml_grad_test.cc.
 *
 * A tape runs in one of two modes, fixed at construction:
 *   - GradMode::kRecord (the default) is the training tape described
 *     above: Param() leaves require grad, and every node that depends on
 *     one allocates a zero-filled adjoint of its value's shape and keeps
 *     its backward closure (with whatever the closure captured, such as
 *     LayerNorm's normalized activations) until the tape dies.
 *   - GradMode::kNone is the inference tape. Param() leaves do not
 *     require grad, so no node does: no adjoint is allocated and no
 *     backward closure or captured state is kept, and each node holds
 *     only its value. Param() leaves borrow the parameter's storage
 *     instead of copying it, and LayerNorm keeps no backward state.
 *     Backward() and grad() fail on it. Every forward that never calls
 *     Backward() — serving, autotune scoring, trainer evaluation — runs
 *     in this mode; its values are bit-identical to a recording tape's,
 *     since both run the same forward kernels.
 *
 * Node storage lives on the heap, except on a tape created on a thread
 * with a TapeArenaScope (ml/tape_arena.h), such as an InferenceServer
 * worker or a Trainer shard. There node values, adjoints, LayerNorm's
 * normalized activations and recording tapes' parameter copies are
 * non-owning views into the scope's TapeArena. Adjoints and the outputs
 * of accumulating kernels (MatMulAcc, GatherRowsAcc, ScatterAddRows, and
 * the column blocks of ConcatGathered) are zero-filled; parameter copies
 * are copied in. The outputs of write-through kernels (LinearBias,
 * BinaryPointwise, UnaryForward, LayerNormForward with its normalized
 * state, and the `*Into` kernels) are not zero-filled first: those
 * kernels assign every output element without reading it, so the bits do
 * not depend on what the memory held, and an arena-backed tape of either
 * mode computes a heap tape's values and gradients bit for bit. Views
 * never leave the tape: value() and grad() return references, and
 * copying one yields an owning tensor that outlives the tape.
 *
 * The tape records *what* to compute; *how* each kernel executes —
 * forward ops and backward accumulations alike — is delegated to the
 * ml::KernelBackend the tape was constructed with (reference loops or
 * tiled/SIMD kernels; see ml/kernels/kernel_backend.h).
 */
#ifndef GRANITE_ML_TAPE_H_
#define GRANITE_ML_TAPE_H_

#include <functional>
#include <vector>

#include "ml/kernels/kernel_backend.h"
#include "ml/parameter.h"
#include "ml/tape_arena.h"
#include "ml/tensor.h"

namespace granite::ml {

class Tape;

/** Lightweight handle to a node on a Tape. */
class Var {
 public:
  Var() = default;

  /** The producing tape, or nullptr for a default-constructed handle. */
  Tape* tape() const { return tape_; }

  /** Index of the node on the tape. */
  int id() const { return id_; }

  /** True for a handle returned by a tape operation. */
  bool valid() const { return tape_ != nullptr; }

 private:
  friend class Tape;
  Var(Tape* tape, int id) : tape_(tape), id_(id) {}

  Tape* tape_ = nullptr;
  int id_ = -1;
};

/**
 * One column block of a ConcatGathered output: rows of `source`, either
 * taken as-is (`indices == nullptr`) or gathered by row index. The
 * pointed-to index vector only needs to live for the duration of the
 * ConcatGathered call (the tape copies what the backward pass needs).
 */
struct GatherSpec {
  Var source;
  const std::vector<int>* indices = nullptr;
};

/** Whether a tape records what Backward() needs (see the file comment). */
enum class GradMode {
  /** Training: parameter leaves require grad; adjoints and backward
   * closures are kept. */
  kRecord,
  /** Inference: no node requires grad; nodes hold only their values. */
  kNone,
};

/** Records operations and computes gradients by reverse accumulation. */
class Tape {
 public:
  /**
   * @param backend Executes every kernel recorded on this tape; nullptr
   *   selects the process default (DefaultKernelBackend()). Must outlive
   *   the tape.
   * @param mode kNone for a forward that never calls Backward().
   */
  explicit Tape(const KernelBackend* backend = nullptr,
                GradMode mode = GradMode::kRecord);
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /** The kernel backend executing this tape's math. */
  const KernelBackend& backend() const { return *backend_; }

  // ---- Leaves -----------------------------------------------------------

  /** A constant leaf; no gradient flows into it. */
  Var Constant(Tensor value);

  /** A leaf bound to a trainable parameter; Backward() accumulates into
   * `parameter->grad`. The parameter must outlive the tape. A recording
   * tape copies `parameter->value`; on a kNone tape the leaf does not
   * require grad and borrows the value, which must not change while the
   * tape lives. */
  Var Param(Parameter* parameter);

  // ---- Linear algebra ---------------------------------------------------

  /** Matrix product a[m,k] * b[k,n]. */
  Var MatMul(Var a, Var b);

  /**
   * Fused linear layer a[m,k] * w[k,n] + bias[1,n] (bias broadcast over
   * rows): one kernel instead of a MatMul node plus an AddRowBroadcast
   * node, saving a full pass over the activations in both directions.
   */
  Var Linear(Var a, Var w, Var bias);

  /** Element-wise sum; shapes must match. */
  Var Add(Var a, Var b);

  /** Element-wise difference. */
  Var Sub(Var a, Var b);

  /** Element-wise product. */
  Var Mul(Var a, Var b);

  /** Element-wise quotient. The denominator must be nonzero everywhere. */
  Var Div(Var a, Var b);

  /** Multiplication by a compile-time constant. */
  Var Scale(Var a, float factor);

  /** Adds a scalar constant to every element. */
  Var AddConstant(Var a, float constant);

  /** Adds a 1xN bias row to every row of a. */
  Var AddRowBroadcast(Var a, Var bias);

  /** Broadcasts an Nx1 column against every column of a[N,M] (used for
   * sequence masking in the LSTM runner). */
  Var MulColumnBroadcast(Var a, Var column);

  // ---- Non-linearities --------------------------------------------------

  /** max(x, 0). */
  Var Relu(Var a);

  /** Logistic sigmoid. */
  Var Sigmoid(Var a);

  /** Hyperbolic tangent. */
  Var Tanh(Var a);

  /** |x|; the derivative at 0 is taken as 0. */
  Var Abs(Var a);

  /** x^2. */
  Var Square(Var a);

  /**
   * Element-wise Huber transform with threshold `delta` (paper §5.2):
   * 0.5 x^2 for |x| <= delta, else delta * (|x| - 0.5 delta).
   */
  Var Huber(Var a, float delta);

  /**
   * Per-row layer normalization with learnable gain/bias (1xN each):
   * y = gain * (x - mean) / sqrt(var + epsilon) + bias.
   */
  Var LayerNorm(Var x, Var gain, Var bias, float epsilon = 1e-5f);

  // ---- Structure ops (GNN plumbing) --------------------------------------

  /** Picks rows of `table` by index; gradient scatters back into the rows.
   * The tape copies `indices` only when a gradient will flow. */
  Var GatherRows(Var table, const std::vector<int>& indices);

  /** Sums rows into `num_segments` buckets by `segment_ids`. The tape
   * copies `segment_ids` only when a gradient will flow. */
  Var SegmentSum(Var rows, const std::vector<int>& segment_ids,
                 int num_segments);

  /** Horizontal concatenation of equal-height matrices. */
  Var ConcatCols(const std::vector<Var>& parts);

  /**
   * Fused gather + horizontal concatenation: each part contributes one
   * column block, gathered by row indices when its GatherSpec carries
   * them. Equivalent to ConcatCols over per-part GatherRows results but
   * writes every block straight into the concatenated output, halving
   * the memory traffic of the graph-network feature assembly.
   */
  Var ConcatGathered(const std::vector<GatherSpec>& parts);

  /** Sum of all elements, as a 1x1 tensor. */
  Var SumAll(Var a);

  /** Mean of all elements, as a 1x1 tensor. */
  Var MeanAll(Var a);

  // ---- Introspection / execution -----------------------------------------

  /** The forward value of a node. */
  const Tensor& value(Var v) const;

  /** The accumulated adjoint of a node (valid after Backward). Fails for
   * a node that does not require grad, hence for every node of a kNone
   * tape. */
  const Tensor& grad(Var v) const;

  /**
   * Runs reverse accumulation from `loss`, which must be 1x1 and require
   * grad (so never on a kNone tape). Parameter leaves accumulate into
   * their Parameter::grad tensors.
   */
  void Backward(Var loss);

  /** Number of nodes currently recorded. */
  std::size_t num_nodes() const { return nodes_.size(); }

  /**
   * Routes Parameter gradient accumulation into `sink` instead of
   * Parameter::grad (nullptr restores the default). Data-parallel workers
   * each give their tape a private sink so concurrent Backward() calls
   * never write shared parameter state; the sinks are reduced into the
   * parameters afterwards on one thread.
   */
  void set_gradient_sink(GradientSink* sink) { gradient_sink_ = sink; }

  /** The active gradient sink, or nullptr for direct accumulation. */
  GradientSink* gradient_sink() const { return gradient_sink_; }

 private:
  struct Node {
    Tensor value;
    Tensor grad;
    bool requires_grad = false;
    Parameter* parameter = nullptr;
    // Propagates this node's adjoint into its inputs' adjoints; empty
    // unless requires_grad.
    std::function<void(Tape&, int self)> backward;
  };

  /** Appends a node. `backward` (any callable taking (Tape&, int self))
   * and its captured state are kept only when `requires_grad`. */
  template <typename BackwardFn>
  Var MakeNode(Tensor value, bool requires_grad, BackwardFn&& backward,
               Parameter* parameter = nullptr);

  /** Storage a kernel overwrites (a node value or LayerNorm state): a
   * view into the arena, left uninitialized, or else a zeroed heap
   * tensor. */
  Tensor NewValue(int rows, int cols);

  /** Zero-filled storage: a node value its kernel accumulates into, or
   * an adjoint. */
  Tensor NewZeroedValue(int rows, int cols);

  /** Shared node builder for the element-wise unary ops. */
  Var UnaryNode(Var a, UnaryOp op, float param);

  Node& node(Var v);
  const Node& node(Var v) const;
  bool RequiresGrad(Var v) const;
  /** Adds `delta` into the adjoint of node `id` if it requires grad. */
  void AccumulateGrad(int id, const Tensor& delta);

  const KernelBackend* backend_;
  GradMode grad_mode_;
  // The thread's arena when the tape was created inside a TapeArenaScope,
  // else nullptr.
  TapeArena* arena_;
  std::vector<Node> nodes_;
  GradientSink* gradient_sink_ = nullptr;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_TAPE_H_
