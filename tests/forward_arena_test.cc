/**
 * @file
 * Lifecycle of the per-thread ForwardArena behind inference tapes: a
 * thread whose forwards do not grow stops allocating for node values, a
 * forward that throws leaves the arena reusable, and a value copied out
 * of a tape outlives the arena memory it came from.
 */
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/granite_model.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "ml/forward_arena.h"
#include "ml/parameter.h"
#include "ml/tape.h"

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

class ForwardArenaTest : public ::testing::Test {
 protected:
  /** SmallForward's value on a heap (arena-free) tape. */
  Tensor HeapValue(float shift) const {
    EXPECT_EQ(ForwardArenaScope::Current(), nullptr);
    Tape tape(nullptr, GradMode::kNone);
    return tape.value(SmallForward(tape, model_, shift));
  }

  SmallModel model_;
};

TEST_F(ForwardArenaTest, SteadyForwardsDoNotGrowTheArena) {
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

  ForwardArenaScope scope;
  ASSERT_EQ(ForwardArenaScope::Current(), &scope.arena());
  EXPECT_EQ(model.PredictBatchAllTasks(pointers), expected);
  const std::size_t mapped = scope.arena().blocks_mapped();
  const std::size_t capacity = scope.arena().capacity();
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
  EXPECT_EQ(scope.arena().blocks_mapped(), mapped);
  EXPECT_EQ(scope.arena().capacity(), capacity);
  EXPECT_EQ(scope.arena().live_tapes(), 0);
}

TEST_F(ForwardArenaTest, LargerForwardFoldsIntoOneChunk) {
  ForwardArenaScope scope;
  ForwardArena& arena = scope.arena();
  {
    Tape tape(nullptr, GradMode::kNone);
    SmallForward(tape, model_, 0.0f);
  }
  const std::size_t small_capacity = arena.capacity();
  const std::size_t mapped = arena.blocks_mapped();
  {
    // Two forwards alive at once need twice the chunk; both spill.
    Tape first(nullptr, GradMode::kNone);
    Tape second(nullptr, GradMode::kNone);
    SmallForward(first, model_, 0.0f);
    SmallForward(second, model_, 0.0f);
    EXPECT_EQ(arena.live_tapes(), 2);
    EXPECT_GT(arena.blocks_mapped(), mapped);
  }
  EXPECT_EQ(arena.capacity(), 2 * small_capacity);
  const std::size_t folded = arena.blocks_mapped();
  {
    Tape first(nullptr, GradMode::kNone);
    Tape second(nullptr, GradMode::kNone);
    SmallForward(first, model_, 0.0f);
    SmallForward(second, model_, 0.0f);
  }
  EXPECT_EQ(arena.blocks_mapped(), folded);
}

TEST_F(ForwardArenaTest, ThrowingForwardLeavesArenaReusable) {
  const Tensor expected = HeapValue(0.5f);
  ForwardArenaScope scope;
  ForwardArena& arena = scope.arena();
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

TEST_F(ForwardArenaTest, CopiedValueOutlivesItsTape) {
  const Tensor expected = HeapValue(1.0f);
  ForwardArenaScope scope;
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
