/**
 * @file
 * Forward-value tests of the autodiff tape (gradients are covered by
 * ml_grad_test.cc), of the inference mode and of arena-backed tapes: a
 * GradMode::kNone tape computes the recording tape's values bit for bit,
 * also when its values live in a TapeArena full of stale NaNs, and
 * refuses Backward() and grad(); a recording tape in such an arena
 * computes a heap recording tape's values, adjoints and parameter
 * gradients bit for bit.
 */
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "backends_under_test.h"
#include "gtest/gtest.h"
#include "ml/parameter.h"
#include "ml/tape.h"
#include "ml/tape_arena.h"

namespace granite::ml {
namespace {

TEST(TapeTest, ConstantHoldsValue) {
  Tape tape;
  const Var v = tape.Constant(Tensor(1, 2, {3, 4}));
  EXPECT_TRUE(tape.value(v) == Tensor(1, 2, {3, 4}));
  EXPECT_TRUE(v.valid());
  EXPECT_FALSE(Var().valid());
}

TEST(TapeTest, ParamReflectsStoreValue) {
  ParameterStore store(1);
  Parameter* p = store.Create("p", 1, 2, Initializer::kZero);
  p->value.at(0, 0) = 5.0f;
  Tape tape;
  EXPECT_EQ(tape.value(tape.Param(p)).at(0, 0), 5.0f);
}

TEST(TapeTest, ArithmeticForward) {
  Tape tape;
  const Var a = tape.Constant(Tensor(1, 2, {2, 8}));
  const Var b = tape.Constant(Tensor(1, 2, {4, 2}));
  EXPECT_TRUE(tape.value(tape.Add(a, b)) == Tensor(1, 2, {6, 10}));
  EXPECT_TRUE(tape.value(tape.Sub(a, b)) == Tensor(1, 2, {-2, 6}));
  EXPECT_TRUE(tape.value(tape.Mul(a, b)) == Tensor(1, 2, {8, 16}));
  EXPECT_TRUE(tape.value(tape.Div(a, b)) == Tensor(1, 2, {0.5f, 4}));
  EXPECT_TRUE(tape.value(tape.Scale(a, 3.0f)) == Tensor(1, 2, {6, 24}));
  EXPECT_TRUE(tape.value(tape.AddConstant(a, 1.0f)) ==
              Tensor(1, 2, {3, 9}));
}

TEST(TapeTest, NonLinearitiesForward) {
  Tape tape;
  const Var x = tape.Constant(Tensor(1, 3, {-2, 0, 2}));
  EXPECT_TRUE(tape.value(tape.Relu(x)) == Tensor(1, 3, {0, 0, 2}));
  EXPECT_TRUE(tape.value(tape.Abs(x)) == Tensor(1, 3, {2, 0, 2}));
  EXPECT_TRUE(tape.value(tape.Square(x)) == Tensor(1, 3, {4, 0, 4}));
  const Tensor sigmoid = tape.value(tape.Sigmoid(x));
  EXPECT_NEAR(sigmoid.at(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(sigmoid.at(0, 2), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  const Tensor tanh = tape.value(tape.Tanh(x));
  EXPECT_NEAR(tanh.at(0, 2), std::tanh(2.0f), 1e-6f);
}

TEST(TapeTest, HuberForward) {
  Tape tape;
  const Var x = tape.Constant(Tensor(1, 3, {0.5f, 2.0f, -3.0f}));
  const Tensor huber = tape.value(tape.Huber(x, 1.0f));
  EXPECT_NEAR(huber.at(0, 0), 0.125f, 1e-6f);        // quadratic regime
  EXPECT_NEAR(huber.at(0, 1), 1.5f, 1e-6f);          // linear regime
  EXPECT_NEAR(huber.at(0, 2), 2.5f, 1e-6f);
}

TEST(TapeTest, LayerNormNormalizesRows) {
  Tape tape;
  const Var x = tape.Constant(Tensor(2, 4, {1, 2, 3, 4, 10, 10, 10, 10}));
  const Var gain = tape.Constant(Tensor::Constant(1, 4, 1.0f));
  const Var bias = tape.Constant(Tensor(1, 4));
  const Tensor normalized = tape.value(tape.LayerNorm(x, gain, bias));
  // Row means ~0.
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 4; ++c) sum += normalized.at(r, c);
    EXPECT_NEAR(sum, 0.0f, 1e-5f);
  }
  // First row has unit variance (up to epsilon).
  float sum_squared = 0;
  for (int c = 0; c < 4; ++c) {
    sum_squared += normalized.at(0, c) * normalized.at(0, c);
  }
  EXPECT_NEAR(sum_squared / 4.0f, 1.0f, 1e-3f);
  // A constant row maps to zeros, not NaN.
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(normalized.at(1, c), 0.0f, 1e-3f);
  }
}

TEST(TapeTest, MulColumnBroadcastMasksRows) {
  Tape tape;
  const Var a = tape.Constant(Tensor(2, 2, {1, 2, 3, 4}));
  const Var mask = tape.Constant(Tensor(2, 1, {1, 0}));
  EXPECT_TRUE(tape.value(tape.MulColumnBroadcast(a, mask)) ==
              Tensor(2, 2, {1, 2, 0, 0}));
}

TEST(TapeTest, GatherSegmentConcatForward) {
  Tape tape;
  const Var table = tape.Constant(Tensor(3, 1, {10, 20, 30}));
  EXPECT_TRUE(tape.value(tape.GatherRows(table, {1, 1, 0})) ==
              Tensor(3, 1, {20, 20, 10}));
  const Var rows = tape.Constant(Tensor(3, 1, {1, 2, 3}));
  EXPECT_TRUE(tape.value(tape.SegmentSum(rows, {1, 1, 0}, 2)) ==
              Tensor(2, 1, {3, 3}));
  EXPECT_TRUE(tape.value(tape.ConcatCols({rows, rows})) ==
              Tensor(3, 2, {1, 1, 2, 2, 3, 3}));
}

TEST(TapeTest, SegmentSumLeavesEmptySegmentsZero) {
  Tape tape;
  const Var rows = tape.Constant(Tensor(1, 2, {5, 6}));
  EXPECT_TRUE(tape.value(tape.SegmentSum(rows, {2}, 4)) ==
              Tensor(4, 2, {0, 0, 0, 0, 5, 6, 0, 0}));
}

TEST(TapeTest, Reductions) {
  Tape tape;
  const Var a = tape.Constant(Tensor(2, 2, {1, 2, 3, 4}));
  EXPECT_EQ(tape.value(tape.SumAll(a)).scalar(), 10.0f);
  EXPECT_EQ(tape.value(tape.MeanAll(a)).scalar(), 2.5f);
}

TEST(TapeTest, BackwardThroughSharedSubexpression) {
  // loss = sum(p * p) must see both uses of p: d/dp = 2p.
  ParameterStore store(2);
  Parameter* p = store.Create("p", 1, 2, Initializer::kZero);
  p->value = Tensor(1, 2, {3, -4});
  Tape tape;
  const Var pv = tape.Param(p);
  tape.Backward(tape.SumAll(tape.Mul(pv, pv)));
  EXPECT_TRUE(p->grad.AllClose(Tensor(1, 2, {6, -8})));
}

TEST(TapeTest, GradAccumulatesAcrossBatches) {
  ParameterStore store(3);
  Parameter* p = store.Create("p", 1, 1, Initializer::kZero);
  p->value.at(0, 0) = 1.0f;
  for (int pass = 0; pass < 3; ++pass) {
    Tape tape;
    tape.Backward(tape.SumAll(tape.Scale(tape.Param(p), 2.0f)));
  }
  EXPECT_EQ(p->grad.at(0, 0), 6.0f);  // 3 passes x d(2p)/dp = 2.
}

/** Parameters feeding EveryOp, so that on a recording tape every op's
 * output requires grad. */
struct OpInputs {
  OpInputs() : store(7) {
    x = store.Create("x", 4, 3, Initializer::kGlorotUniform);
    w = store.Create("w", 3, 2, Initializer::kGlorotUniform);
    bias = store.Create("bias", 1, 2, Initializer::kGlorotUniform);
    gain = store.Create("gain", 1, 3, Initializer::kGlorotUniform);
    shift = store.Create("shift", 1, 3, Initializer::kGlorotUniform);
    column = store.Create("column", 4, 1, Initializer::kGlorotUniform);
  }

  ParameterStore store;
  Parameter* x;
  Parameter* w;
  Parameter* bias;
  Parameter* gain;
  Parameter* shift;
  Parameter* column;
};

/** Whether EveryOp's output `i` is one of its two constant leaves, the
 * only outputs that do not require grad on a recording tape. */
bool IsConstantLeaf(std::size_t i) { return i == 6 || i == 7; }

/** Applies every Tape op once and returns every node it made, in order:
 * the leaves, then one output per op. */
std::vector<Var> EveryOp(Tape& tape, const OpInputs& in) {
  const Var x = tape.Param(in.x);
  const Var w = tape.Param(in.w);
  const Var bias = tape.Param(in.bias);
  const Var gain = tape.Param(in.gain);
  const Var shift = tape.Param(in.shift);
  const Var column = tape.Param(in.column);
  const Var c = tape.Constant(
      Tensor(4, 3, {1, -2, 3, 0.5f, 4, -1, 2, 2, -3, 0.25f, 1, 5}));
  const Var positive = tape.Constant(Tensor::Constant(4, 3, 1.5f));
  const std::vector<int> rows = {3, 0, 0, 2, 1};
  const std::vector<int> four_rows = {2, 2, 0, 1};
  std::vector<Var> out = {x, w, bias, gain, shift, column, c, positive};
  out.push_back(tape.MatMul(x, w));
  out.push_back(tape.Linear(x, w, bias));
  out.push_back(tape.Add(x, c));
  out.push_back(tape.Sub(x, c));
  out.push_back(tape.Mul(x, c));
  out.push_back(tape.Div(x, positive));
  out.push_back(tape.Scale(x, 0.3f));
  out.push_back(tape.AddConstant(x, 1.5f));
  out.push_back(tape.AddRowBroadcast(x, gain));
  out.push_back(tape.MulColumnBroadcast(x, column));
  out.push_back(tape.Relu(x));
  out.push_back(tape.Sigmoid(x));
  out.push_back(tape.Tanh(x));
  out.push_back(tape.Abs(x));
  out.push_back(tape.Square(x));
  out.push_back(tape.Huber(x, 0.05f));
  out.push_back(tape.LayerNorm(x, gain, shift));
  out.push_back(tape.GatherRows(x, rows));
  out.push_back(tape.SegmentSum(x, {1, 0, 1, 2}, 3));
  out.push_back(tape.ConcatCols({x, c}));
  const std::vector<GatherSpec> parts = {
      {x, &four_rows}, {c, nullptr}, {column, nullptr}};
  out.push_back(tape.ConcatGathered(parts));
  out.push_back(tape.SumAll(x));
  out.push_back(tape.MeanAll(x));
  EXPECT_EQ(out.size(), tape.num_nodes());
  return out;
}

std::vector<const KernelBackend*> AllBackends() {
  std::vector<const KernelBackend*> backends = {
      &GetKernelBackend(KernelBackendKind::kReference)};
  for (const BackendUnderTest& backend : BackendsUnderTest()) {
    if (backend.needs_avx2 && !DispatchesAvx2Copy()) continue;
    backends.push_back(&backend.backend());
  }
  return backends;
}

/** Overwrites every float `arena` hands out with NaN, through one
 * inference forward whose only node value fills the whole chunk. */
void FillArenaWithNan(const KernelBackend* backend, TapeArena& arena) {
  std::size_t count = arena.capacity();
  while (count > 0 && TapeArena::Footprint(count) > arena.capacity()) {
    --count;
  }
  ASSERT_GT(count, 0u);
  const std::size_t mapped = arena.blocks_mapped();
  Tape tape(backend, GradMode::kNone);
  tape.Scale(tape.Constant(Tensor::Constant(
                 1, static_cast<int>(count),
                 std::numeric_limits<float>::quiet_NaN())),
             1.0f);
  // The fill went into the retained chunk, not into a new block.
  EXPECT_EQ(arena.blocks_mapped(), mapped);
}

/** Expects every EveryOp output of `inference` to equal `recording`'s
 * bit for bit. */
void ExpectSameValues(const Tape& recording,
                      const std::vector<Var>& recorded,
                      const Tape& inference,
                      const std::vector<Var>& inferred) {
  ASSERT_EQ(recording.num_nodes(), inference.num_nodes());
  ASSERT_EQ(recorded.size(), inferred.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    SCOPED_TRACE(i);
    const Tensor& expected = recording.value(recorded[i]);
    const Tensor& actual = inference.value(inferred[i]);
    ASSERT_EQ(actual.rows(), expected.rows());
    ASSERT_EQ(actual.cols(), expected.cols());
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                          expected.size() * sizeof(float)),
              0);
    // The recording tape really recorded: every output but the
    // constant leaf has an adjoint.
    if (!IsConstantLeaf(i)) {
      EXPECT_EQ(recording.grad(recorded[i]).size(), expected.size());
    }
  }
}

TEST(TapeGradModeTest, InferenceValuesAreBitIdenticalToRecording) {
  const OpInputs inputs;
  for (const KernelBackend* backend : AllBackends()) {
    SCOPED_TRACE(backend->name());
    Tape recording(backend);
    const std::vector<Var> recorded = EveryOp(recording, inputs);
    {
      SCOPED_TRACE("heap");
      Tape inference(backend, GradMode::kNone);
      const std::vector<Var> inferred = EveryOp(inference, inputs);
      ExpectSameValues(recording, recorded, inference, inferred);
      // Inference leaves borrow the parameter instead of copying it.
      EXPECT_EQ(inference.value(inferred[0]).data(), inputs.x->value.data());
    }
    {
      // Every write-through output starts out as stale NaNs: a kernel
      // that skips an element shows up as a NaN mismatch.
      SCOPED_TRACE("arena");
      TapeArena arena;
      const TapeArenaScope scope(arena);
      {
        Tape sizing(backend, GradMode::kNone);
        EveryOp(sizing, inputs);
      }
      FillArenaWithNan(backend, arena);
      const std::size_t mapped = arena.blocks_mapped();
      Tape inference(backend, GradMode::kNone);
      EXPECT_EQ(arena.live_tapes(), 1);
      const std::vector<Var> inferred = EveryOp(inference, inputs);
      ExpectSameValues(recording, recorded, inference, inferred);
      EXPECT_EQ(arena.blocks_mapped(), mapped);
    }
  }
}

/** Records EveryOp into `tape` with `sink`, sums every output but the
 * constant leaves into one loss and runs Backward; returns every node,
 * the loss chain included. */
std::vector<Var> RecordEveryOp(Tape& tape, const OpInputs& inputs,
                               GradientSink& sink) {
  tape.set_gradient_sink(&sink);
  std::vector<Var> nodes = EveryOp(tape, inputs);
  const std::size_t outputs = nodes.size();
  Var loss = tape.SumAll(nodes[0]);
  nodes.push_back(loss);
  for (std::size_t i = 1; i < outputs; ++i) {
    if (IsConstantLeaf(i)) continue;
    nodes.push_back(tape.SumAll(nodes[i]));
    loss = tape.Add(loss, nodes.back());
    nodes.push_back(loss);
  }
  EXPECT_EQ(nodes.size(), tape.num_nodes());
  tape.Backward(loss);
  return nodes;
}

/** memcmp of two tensors, shapes first. */
void ExpectSameBits(const Tensor& actual, const Tensor& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
}

TEST(TapeGradModeTest, RecordingTapesInAScopeMatchHeap) {
  const OpInputs inputs;
  const std::vector<Parameter*> parameters = {
      inputs.x,     inputs.w,     inputs.bias,
      inputs.gain,  inputs.shift, inputs.column};
  for (const KernelBackend* backend : AllBackends()) {
    SCOPED_TRACE(backend->name());
    GradientSink heap_sink;
    Tape heap(backend);
    const std::vector<Var> expected = RecordEveryOp(heap, inputs, heap_sink);

    // Every value, adjoint, LayerNorm state and parameter copy starts out
    // as stale NaNs: storage the tape fails to fill or zero shows up as a
    // mismatch.
    TapeArena arena;
    const TapeArenaScope scope(arena);
    {
      GradientSink sizing_sink;
      Tape sizing(backend);
      RecordEveryOp(sizing, inputs, sizing_sink);
    }
    FillArenaWithNan(backend, arena);
    const std::size_t mapped = arena.blocks_mapped();
    GradientSink arena_sink;
    Tape recording(backend);
    EXPECT_EQ(arena.live_tapes(), 1);
    const std::vector<Var> actual =
        RecordEveryOp(recording, inputs, arena_sink);
    EXPECT_EQ(arena.blocks_mapped(), mapped);
    // The recording copied each parameter rather than borrowing it.
    EXPECT_NE(recording.value(actual[0]).data(), inputs.x->value.data());

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameBits(recording.value(actual[i]), heap.value(expected[i]));
      if (!IsConstantLeaf(i)) {
        ExpectSameBits(recording.grad(actual[i]), heap.grad(expected[i]));
      }
    }
    for (Parameter* parameter : parameters) {
      SCOPED_TRACE(parameter->name);
      ExpectSameBits(arena_sink.GradFor(parameter),
                     heap_sink.GradFor(parameter));
    }
  }
}

TEST(TapeGradModeDeathTest, BackwardOnInferenceTapeFails) {
  const OpInputs inputs;
  Tape tape(nullptr, GradMode::kNone);
  const Var loss = tape.SumAll(tape.Square(tape.Param(inputs.x)));
  EXPECT_DEATH(tape.Backward(loss), "non-differentiable loss");
}

TEST(TapeGradModeDeathTest, GradOnInferenceTapeFails) {
  const OpInputs inputs;
  Tape tape(nullptr, GradMode::kNone);
  const Var x = tape.Param(inputs.x);
  EXPECT_DEATH(tape.grad(x), "non-differentiable node");
  EXPECT_DEATH(tape.grad(tape.Tanh(x)), "non-differentiable node");
}

}  // namespace
}  // namespace granite::ml
