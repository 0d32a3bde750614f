/**
 * @file
 * Tests of the GRANITE model facade: shapes, determinism, multi-task
 * heads, per-instruction decoding, checkpointing, and the inference
 * entry points' bit-identity with a recording-tape forward.
 */
#include <cstdio>
#include <cstring>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "core/granite_model.h"
#include "dataset/generator.h"
#include "model/checkpoint.h"

namespace granite::core {
namespace {

assembly::BasicBlock Parse(const char* text) {
  const auto result = assembly::ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

class GraniteModelTest : public ::testing::Test {
 protected:
  GraniteModelTest() : vocabulary_(graph::Vocabulary::CreateDefault()) {}

  GraniteConfig SmallConfig(int num_tasks = 1) {
    GraniteConfig config = GraniteConfig().WithEmbeddingSize(8);
    config.message_passing_iterations = 2;
    config.num_tasks = num_tasks;
    return config;
  }

  graph::Vocabulary vocabulary_;
};

TEST_F(GraniteModelTest, ForwardShape) {
  GraniteModel model(&vocabulary_, SmallConfig());
  const assembly::BasicBlock a = Parse("ADD RAX, RBX");
  const assembly::BasicBlock b = Parse("MOV RCX, 1\nIMUL RCX, RDX");
  ml::Tape tape;
  const auto predictions = model.Forward(tape, {&a, &b});
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(tape.value(predictions[0]).rows(), 2);
  EXPECT_EQ(tape.value(predictions[0]).cols(), 1);
}

TEST_F(GraniteModelTest, MultiTaskHeadsDiffer) {
  GraniteModel model(&vocabulary_, SmallConfig(/*num_tasks=*/3));
  const assembly::BasicBlock block = Parse("ADD RAX, RBX\nDIV RCX");
  ml::Tape tape;
  const auto predictions = model.Forward(tape, {&block});
  ASSERT_EQ(predictions.size(), 3u);
  // Independently initialized decoders produce different outputs on the
  // shared trunk.
  EXPECT_NE(tape.value(predictions[0]).at(0, 0),
            tape.value(predictions[1]).at(0, 0));
  EXPECT_NE(tape.value(predictions[1]).at(0, 0),
            tape.value(predictions[2]).at(0, 0));
}

TEST_F(GraniteModelTest, PredictIsDeterministic) {
  GraniteModel model(&vocabulary_, SmallConfig());
  const assembly::BasicBlock block = Parse("ADD RAX, RBX");
  const auto first = model.Predict({&block}, 0);
  const auto second = model.Predict({&block}, 0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], second[0]);
}

TEST_F(GraniteModelTest, SameSeedSameModel) {
  GraniteModel model_a(&vocabulary_, SmallConfig());
  GraniteModel model_b(&vocabulary_, SmallConfig());
  const assembly::BasicBlock block = Parse("IMUL RAX, RBX");
  EXPECT_EQ(model_a.Predict({&block}, 0)[0],
            model_b.Predict({&block}, 0)[0]);
}

TEST_F(GraniteModelTest, DifferentSeedDifferentModel) {
  GraniteConfig config_b = SmallConfig();
  config_b.seed = 777;
  GraniteModel model_a(&vocabulary_, SmallConfig());
  GraniteModel model_b(&vocabulary_, config_b);
  const assembly::BasicBlock block = Parse("IMUL RAX, RBX");
  EXPECT_NE(model_a.Predict({&block}, 0)[0],
            model_b.Predict({&block}, 0)[0]);
}

TEST_F(GraniteModelTest, PredictionInvariantToBatchCompanions) {
  // Per-graph decoding must not leak between blocks in a batch.
  GraniteModel model(&vocabulary_, SmallConfig());
  const assembly::BasicBlock a = Parse("ADD RAX, RBX");
  const assembly::BasicBlock b = Parse("DIV RCX\nDIV RCX");
  const double alone = model.Predict({&a}, 0)[0];
  const double with_companion = model.Predict({&a, &b}, 0)[0];
  EXPECT_NEAR(alone, with_companion, 1e-4);
}

TEST_F(GraniteModelTest, SumDecompositionOverInstructions) {
  // The block prediction is the sum of per-instruction decoder outputs:
  // a repeated instruction roughly doubles the prediction of a single
  // one (identical mnemonic-node embeddings in both positions would be
  // required for exactness; the structural edge changes them slightly,
  // so only rough agreement is expected — this still distinguishes the
  // additive decoder from a pooled one).
  GraniteModel model(&vocabulary_, SmallConfig());
  const assembly::BasicBlock one = Parse("NOP");
  const assembly::BasicBlock two = Parse("NOP\nNOP");
  const double one_value = model.Predict({&one}, 0)[0];
  const double two_value = model.Predict({&two}, 0)[0];
  // Same sign and larger magnitude in the two-instruction block.
  EXPECT_GT(std::abs(two_value), std::abs(one_value) * 1.2);
}

TEST_F(GraniteModelTest, MessagePassingDepthMatters) {
  GraniteConfig shallow = SmallConfig();
  shallow.message_passing_iterations = 1;
  GraniteConfig deep = SmallConfig();
  deep.message_passing_iterations = 8;
  GraniteModel model_shallow(&vocabulary_, shallow);
  GraniteModel model_deep(&vocabulary_, deep);
  const assembly::BasicBlock block =
      Parse("MOV RAX, 1\nADD RAX, RBX\nADD RCX, RAX\nADD RDX, RCX");
  EXPECT_NE(model_shallow.Predict({&block}, 0)[0],
            model_deep.Predict({&block}, 0)[0]);
}

TEST_F(GraniteModelTest, CheckpointRoundTripPreservesPredictions) {
  const std::string path = ::testing::TempDir() + "/granite_ckpt.gmb";
  GraniteModel model(&vocabulary_, SmallConfig());
  // Move the weights off their seeded initialization, so that only a
  // restored parameter set (not a re-run of the initializers) can match.
  for (const auto& parameter : model.parameters().parameters()) {
    for (std::size_t i = 0; i < parameter->value.size(); ++i) {
      parameter->value.data()[i] = parameter->value.data()[i] * 1.5f + 0.01f;
    }
  }
  model.parameters().BumpGeneration();
  const assembly::BasicBlock block = Parse("ADD RAX, RBX\nIMUL RCX, RAX");
  const double before = model.Predict({&block}, 0)[0];
  model::SaveModel(model, path);

  EXPECT_NE(GraniteModel(&vocabulary_, SmallConfig()).Predict({&block}, 0)[0],
            before);
  const std::unique_ptr<model::ThroughputPredictor> restored =
      model::LoadModel(path);
  EXPECT_EQ(restored->Predict({&block}, 0)[0], before);
  std::remove(path.c_str());
}

TEST_F(GraniteModelTest, ConfigScalingHelper) {
  const GraniteConfig scaled = GraniteConfig().WithEmbeddingSize(16);
  EXPECT_EQ(scaled.node_embedding_size, 16);
  EXPECT_EQ(scaled.edge_embedding_size, 16);
  EXPECT_EQ(scaled.global_embedding_size, 16);
  EXPECT_EQ(scaled.decoder_layers, (std::vector<int>{16, 16}));
}

TEST_F(GraniteModelTest, DefaultConfigMatchesPaperTable4) {
  const GraniteConfig config;
  EXPECT_EQ(config.node_embedding_size, 256);
  EXPECT_EQ(config.edge_embedding_size, 256);
  EXPECT_EQ(config.global_embedding_size, 256);
  EXPECT_EQ(config.node_update_layers, (std::vector<int>{256, 256}));
  EXPECT_EQ(config.message_passing_iterations, 8);
  EXPECT_TRUE(config.use_layer_norm);
  EXPECT_TRUE(config.use_residual);
}

/** The model's scalar output as a float, for bit comparisons. */
float Bits(double prediction) { return static_cast<float>(prediction); }

bool BitEqual(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST_F(GraniteModelTest, InferenceEntryPointsMatchRecordingForward) {
  // Predict, PredictBatchAllTasks and PredictPerInstruction run on
  // inference (GradMode::kNone) tapes; each must reproduce the values of
  // a recording-tape ForwardGraphs bit for bit.
  constexpr int kTasks = 3;
  const GraniteModel model(&vocabulary_, SmallConfig(kTasks));
  dataset::BlockGenerator generator(dataset::GeneratorConfig(), 11);
  const std::vector<assembly::BasicBlock> corpus = generator.GenerateMany(64);
  for (const std::size_t batch_size : {1u, 7u, 64u}) {
    SCOPED_TRACE(batch_size);
    std::vector<const assembly::BasicBlock*> blocks;
    for (std::size_t i = 0; i < batch_size; ++i) blocks.push_back(&corpus[i]);

    ml::Tape recording(&ml::GetKernelBackend(model.config().kernel_backend));
    const std::vector<ml::Var> expected =
        model.ForwardGraphs(recording, model.EncodeBlocks(blocks));
    ASSERT_EQ(expected.size(), static_cast<std::size_t>(kTasks));
    const auto all_tasks = model.PredictBatchAllTasks(blocks);
    ASSERT_EQ(all_tasks.size(), batch_size);
    for (int task = 0; task < kTasks; ++task) {
      const ml::Tensor& column = recording.value(expected[task]);
      const std::vector<double> predicted = model.Predict(blocks, task);
      const auto per_instruction = model.PredictPerInstruction(blocks, task);
      ASSERT_EQ(predicted.size(), batch_size);
      ASSERT_EQ(per_instruction.size(), batch_size);
      for (std::size_t i = 0; i < batch_size; ++i) {
        const float want = column.at(static_cast<int>(i), 0);
        EXPECT_TRUE(BitEqual(Bits(predicted[i]), want)) << task << "/" << i;
        EXPECT_TRUE(BitEqual(Bits(all_tasks[i][task]), want))
            << task << "/" << i;
        // The per-instruction contributions are the rows the recording
        // forward's segment sum adds, in the same order.
        ASSERT_EQ(per_instruction[i].size(), blocks[i]->size());
        float sum = 0.0f;
        for (const double contribution : per_instruction[i]) {
          sum += Bits(contribution);
        }
        EXPECT_TRUE(BitEqual(sum, want)) << task << "/" << i;
      }
    }
  }
}

}  // namespace
}  // namespace granite::core
