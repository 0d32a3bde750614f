/**
 * @file
 * Lifecycle of the TapeArena behind arena-backed tapes: an owner whose
 * steps do not grow stops allocating for node storage, a creeping
 * sequence of steps maps a number of blocks that grows with the log of
 * its growth, one arena serves a recording tape and then an inference
 * tape, a step that throws leaves the arena reusable, and a value copied
 * out of a tape outlives the arena memory it came from.
 */
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/granite_model.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "ml/parameter.h"
#include "ml/tape.h"
#include "ml/tape_arena.h"

namespace granite::ml {
namespace {

/** Parameters of SmallForward. */
struct SmallModel {
  SmallModel() : store(5) {
    x = store.Create("x", 3, 4, Initializer::kGlorotUniform);
    w = store.Create("w", 4, 6, Initializer::kGlorotUniform);
    bias = store.Create("bias", 1, 6, Initializer::kGlorotUniform);
  }

  ParameterStore store;
  Parameter* x;
  Parameter* w;
  Parameter* bias;
};

/** A small inference forward over every kind of node value the GNN
 * uses: borrowed leaves, accumulated and written-through outputs. */
Var SmallForward(Tape& tape, const SmallModel& model, float shift) {
  const Var x = tape.Param(model.x);
  const Var w = tape.Param(model.w);
  const Var bias = tape.Param(model.bias);
  const std::vector<int> rows = {2, 0, 1, 1};
  const Var gathered = tape.GatherRows(x, rows);
  const Var hidden = tape.Relu(tape.Linear(gathered, w, bias));
  return tape.AddConstant(tape.SegmentSum(hidden, {0, 1, 0, 1}, 2), shift);
}

class TapeArenaTest : public ::testing::Test {
 protected:
  /** SmallForward's value on a heap (arena-free) tape. */
  Tensor HeapValue(float shift) const {
    EXPECT_EQ(TapeArenaScope::Current(), nullptr);
    Tape tape(nullptr, GradMode::kNone);
    return tape.value(SmallForward(tape, model_, shift));
  }

  SmallModel model_;
};

TEST_F(TapeArenaTest, SteadyForwardsDoNotGrowTheArena) {
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
  config.num_tasks = 2;
  const core::GraniteModel model(&vocabulary, config);
  dataset::BlockGenerator generator(dataset::GeneratorConfig(), 3);
  const std::vector<assembly::BasicBlock> blocks = generator.GenerateMany(16);
  std::vector<const assembly::BasicBlock*> pointers;
  for (const assembly::BasicBlock& block : blocks) pointers.push_back(&block);
  const std::vector<std::vector<double>> expected =
      model.PredictBatchAllTasks(pointers);

  TapeArena arena;
  const TapeArenaScope scope(arena);
  ASSERT_EQ(TapeArenaScope::Current(), &arena);
  EXPECT_EQ(model.PredictBatchAllTasks(pointers), expected);
  const std::size_t mapped = arena.blocks_mapped();
  const std::size_t capacity = arena.capacity();
  EXPECT_GT(mapped, 0u);
  EXPECT_GT(capacity, 0u);

  // Windows of the first batch: every node value is at most the size it
  // had there, so the chunk holds each forward whole.
  for (int forward = 0; forward < 100; ++forward) {
    const std::size_t size = 1 + forward % 16;
    const std::size_t begin = (forward * 7) % (17 - size);
    const std::vector<const assembly::BasicBlock*> batch(
        pointers.begin() + begin, pointers.begin() + begin + size);
    const std::vector<std::vector<double>> predictions =
        model.PredictBatchAllTasks(batch);
    ASSERT_EQ(predictions.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(predictions[i], expected[begin + i]) << forward;
    }
  }
  EXPECT_EQ(arena.blocks_mapped(), mapped);
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.live_tapes(), 0);
}

TEST_F(TapeArenaTest, LargerForwardFoldsIntoOneChunk) {
  TapeArena arena;
  const TapeArenaScope scope(arena);
  {
    Tape tape(nullptr, GradMode::kNone);
    SmallForward(tape, model_, 0.0f);
  }
  const std::size_t small_capacity = arena.capacity();
  const std::size_t mapped = arena.blocks_mapped();
  {
    // Two forwards alive at once need about twice the chunk; the second
    // spills into one shared overflow block.
    Tape first(nullptr, GradMode::kNone);
    Tape second(nullptr, GradMode::kNone);
    SmallForward(first, model_, 0.0f);
    SmallForward(second, model_, 0.0f);
    EXPECT_EQ(arena.live_tapes(), 2);
    EXPECT_EQ(arena.blocks_mapped(), mapped + 1);
  }
  // The fold keeps 1/8 headroom over what the two forwards used.
  EXPECT_GT(arena.capacity(), small_capacity);
  EXPECT_GE(arena.capacity(), 2 * small_capacity * 8 / 9);
  const std::size_t folded = arena.blocks_mapped();
  EXPECT_EQ(folded, mapped + 2);
  {
    Tape first(nullptr, GradMode::kNone);
    Tape second(nullptr, GradMode::kNone);
    SmallForward(first, model_, 0.0f);
    SmallForward(second, model_, 0.0f);
  }
  EXPECT_EQ(arena.blocks_mapped(), folded);
}

TEST_F(TapeArenaTest, CreepingForwardsMapLogarithmicallyManyBlocks) {
  // Forward k holds k + kFirst node values of 1024 floats each, so every
  // forward is slightly larger than the one before: kGrowth times larger
  // by the end. An exact-size fold would map two blocks per forward.
  constexpr int kFirst = 8;
  constexpr int kGrowth = 64;
  constexpr int kNodeFloats = 1024;
  const Tensor input = Tensor::Constant(1, kNodeFloats, 1.0f);
  TapeArena arena;
  const TapeArenaScope scope(arena);
  int forwards = 0;
  for (int nodes = kFirst; nodes <= kFirst * kGrowth; ++nodes, ++forwards) {
    Tape tape(nullptr, GradMode::kNone);
    const Var leaf = tape.Constant(input);
    for (int i = 0; i < nodes; ++i) tape.Scale(leaf, 2.0f);
  }
  // Each fold grows the chunk by at least 1/8 and maps at most two
  // blocks: one shared overflow block (at least the chunk's size) and
  // the folded chunk.
  const double folds =
      std::ceil(std::log(static_cast<double>(kGrowth)) / std::log(9.0 / 8.0));
  EXPECT_LE(static_cast<double>(arena.blocks_mapped()), 2.0 * (folds + 1));
  EXPECT_LT(arena.blocks_mapped(), static_cast<std::size_t>(forwards) / 4);
  EXPECT_GE(arena.capacity(),
            static_cast<std::size_t>(kFirst * kGrowth) *
                TapeArena::Footprint(kNodeFloats));
}

TEST_F(TapeArenaTest, RecordingThenInferenceTapesShareOneArena) {
  // SmallForward's value and its parameters' gradients on heap tapes.
  const Tensor expected_value = HeapValue(0.25f);
  std::vector<Tensor> expected_grads;
  {
    GradientSink sink;
    Tape tape;
    tape.set_gradient_sink(&sink);
    tape.Backward(tape.SumAll(SmallForward(tape, model_, 0.25f)));
    for (Parameter* parameter : {model_.x, model_.w, model_.bias}) {
      expected_grads.push_back(sink.GradFor(parameter));
    }
  }

  TapeArena arena;
  const TapeArenaScope scope(arena);
  {
    GradientSink sink;
    Tape tape;
    tape.set_gradient_sink(&sink);
    const Var out = SmallForward(tape, model_, 0.25f);
    tape.Backward(tape.SumAll(out));
    EXPECT_EQ(arena.live_tapes(), 1);
    EXPECT_TRUE(tape.value(out) == expected_value);
    std::size_t p = 0;
    for (Parameter* parameter : {model_.x, model_.w, model_.bias}) {
      EXPECT_TRUE(sink.GradFor(parameter) == expected_grads[p++]);
    }
  }
  EXPECT_EQ(arena.live_tapes(), 0);
  const std::size_t mapped = arena.blocks_mapped();
  EXPECT_GT(mapped, 0u);

  // The inference forward needs no more than the recording one (no
  // adjoints, borrowed parameters), so it fits in the rewound chunk.
  Tape tape(nullptr, GradMode::kNone);
  const Tensor& value = tape.value(SmallForward(tape, model_, 0.25f));
  EXPECT_EQ(std::memcmp(value.data(), expected_value.data(),
                        expected_value.size() * sizeof(float)),
            0);
  EXPECT_EQ(arena.live_tapes(), 1);
  EXPECT_EQ(arena.blocks_mapped(), mapped);
}

TEST_F(TapeArenaTest, ThrowingForwardLeavesArenaReusable) {
  const Tensor expected = HeapValue(0.5f);
  TapeArena arena;
  const TapeArenaScope scope(arena);
  {
    Tape tape(nullptr, GradMode::kNone);
    SmallForward(tape, model_, 0.5f);
  }
  const std::size_t mapped = arena.blocks_mapped();

  EXPECT_THROW(
      {
        Tape tape(nullptr, GradMode::kNone);
        const Var x = tape.Param(model_.x);
        tape.Relu(tape.Scale(x, 2.0f));
        throw std::runtime_error("forward failed midway");
      },
      std::runtime_error);
  EXPECT_EQ(arena.live_tapes(), 0);

  Tape tape(nullptr, GradMode::kNone);
  const Tensor& value = tape.value(SmallForward(tape, model_, 0.5f));
  EXPECT_EQ(std::memcmp(value.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
  EXPECT_EQ(arena.blocks_mapped(), mapped);
}

TEST_F(TapeArenaTest, CopiedValueOutlivesItsTape) {
  const Tensor expected = HeapValue(1.0f);
  TapeArena arena;
  const TapeArenaScope scope(arena);
  Tensor copy;
  Tensor moved_copy;
  {
    Tape tape(nullptr, GradMode::kNone);
    const Var out = SmallForward(tape, model_, 1.0f);
    copy = tape.value(out);
    Tensor another = tape.value(out);
    moved_copy = std::move(another);
  }
  {
    // The next forward reuses the same arena memory with other values.
    Tape tape(nullptr, GradMode::kNone);
    SmallForward(tape, model_, -1.0f);
  }
  EXPECT_TRUE(copy == expected);
  EXPECT_TRUE(moved_copy == expected);
}

}  // namespace
}  // namespace granite::ml
