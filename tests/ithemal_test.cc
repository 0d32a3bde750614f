/**
 * @file
 * Tests of the Ithemal tokenizer and the Ithemal / Ithemal+ models.
 */
#include <cmath>
#include <cstring>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "dataset/generator.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"

namespace granite::ithemal {
namespace {

assembly::BasicBlock Parse(const char* text) {
  const auto result = assembly::ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

assembly::Instruction ParseOne(const char* text) {
  const auto result = assembly::ParseInstruction(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

TEST(TokenizerTest, PaperExampleSbb) {
  // Paper §2.2: "SBB EAX, EBX" becomes
  // SBB | <S> | EAX | EBX | <D> | EAX | <E>.
  const auto tokens = TokenizeInstruction(ParseOne("SBB EAX, EBX"));
  const std::vector<std::string> expected = {"SBB", "<S>", "EAX", "EBX",
                                             "<D>", "EAX", "<E>"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizerTest, MovSeparatesSourceAndDestination) {
  const auto tokens = TokenizeInstruction(ParseOne("MOV EAX, EBX"));
  const std::vector<std::string> expected = {"MOV", "<S>", "EBX",
                                             "<D>", "EAX", "<E>"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizerTest, ImmediateUsesSharedToken) {
  const auto tokens = TokenizeInstruction(ParseOne("MOV EAX, 42"));
  EXPECT_EQ(tokens[2], graph::Vocabulary::kImmediateToken);
}

TEST(TokenizerTest, MemoryOperandListsAddressRegisters) {
  const auto tokens =
      TokenizeInstruction(ParseOne("MOV EAX, DWORD PTR [RBX + 2*RCX]"));
  const std::vector<std::string> expected = {
      "MOV", "<S>", "RBX", "RCX", graph::Vocabulary::kMemoryToken,
      "<D>", "EAX", "<E>"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizerTest, ReadWriteOperandAppearsOnBothSides) {
  const auto tokens = TokenizeInstruction(ParseOne("ADD EAX, EBX"));
  const std::vector<std::string> expected = {"ADD", "<S>", "EAX", "EBX",
                                             "<D>", "EAX", "<E>"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizerTest, PrefixIsEmittedBeforeMnemonic) {
  const auto tokens =
      TokenizeInstruction(ParseOne("LOCK ADD DWORD PTR [RAX], EBX"));
  EXPECT_EQ(tokens[0], "LOCK");
  EXPECT_EQ(tokens[1], "ADD");
}

TEST(TokenizerTest, IndicesResolveThroughVocabulary) {
  const graph::Vocabulary vocabulary = CreateIthemalVocabulary();
  const auto indices = TokenizeInstructionToIndices(
      ParseOne("SBB EAX, EBX"), vocabulary);
  ASSERT_EQ(indices.size(), 7u);
  const int unknown =
      vocabulary.TokenIndex(graph::Vocabulary::kUnknownToken);
  for (const int index : indices) EXPECT_NE(index, unknown);
}

TEST(IthemalVocabularyTest, ContainsSeparators) {
  const graph::Vocabulary vocabulary = CreateIthemalVocabulary();
  for (const char* token : {kSourcesToken, kDestinationsToken, kEndToken}) {
    EXPECT_EQ(vocabulary.tokens()[vocabulary.TokenIndex(token)], token);
  }
}

class IthemalModelTest : public ::testing::Test {
 protected:
  IthemalModelTest() : vocabulary_(CreateIthemalVocabulary()) {}

  IthemalConfig SmallConfig(DecoderKind decoder, int num_tasks = 1) {
    IthemalConfig config = IthemalConfig().WithEmbeddingSize(8);
    config.decoder = decoder;
    config.num_tasks = num_tasks;
    return config;
  }

  graph::Vocabulary vocabulary_;
};

TEST_F(IthemalModelTest, VanillaForwardShape) {
  IthemalModel model(&vocabulary_, SmallConfig(DecoderKind::kDotProduct));
  const assembly::BasicBlock a = Parse("ADD RAX, RBX");
  const assembly::BasicBlock b = Parse("MOV RCX, 1\nIMUL RCX, RDX");
  ml::Tape tape;
  const auto predictions = model.Forward(tape, {&a, &b});
  ASSERT_EQ(predictions.size(), 1u);
  EXPECT_EQ(tape.value(predictions[0]).rows(), 2);
  EXPECT_EQ(tape.value(predictions[0]).cols(), 1);
}

TEST_F(IthemalModelTest, PlusDecoderForwardShape) {
  IthemalModel model(&vocabulary_, SmallConfig(DecoderKind::kMlp, 3));
  const assembly::BasicBlock block = Parse("ADD RAX, RBX");
  ml::Tape tape;
  const auto predictions = model.Forward(tape, {&block});
  ASSERT_EQ(predictions.size(), 3u);
}

TEST_F(IthemalModelTest, DeterministicPredictions) {
  IthemalModel model(&vocabulary_, SmallConfig(DecoderKind::kDotProduct));
  const assembly::BasicBlock block = Parse("ADD RAX, RBX\nSUB RCX, RAX");
  EXPECT_EQ(model.Predict({&block}, 0)[0], model.Predict({&block}, 0)[0]);
}

TEST_F(IthemalModelTest, BatchInvariance) {
  IthemalModel model(&vocabulary_, SmallConfig(DecoderKind::kMlp));
  const assembly::BasicBlock a = Parse("ADD RAX, RBX");
  const assembly::BasicBlock b = Parse("DIV RCX\nADD RDX, 1\nNOP");
  const double alone = model.Predict({&a}, 0)[0];
  const double with_companion = model.Predict({&a, &b}, 0)[0];
  EXPECT_NEAR(alone, with_companion, 1e-4);
}

TEST_F(IthemalModelTest, OrderSensitivity) {
  // An LSTM is order-sensitive: permuting instructions changes the
  // prediction (unlike a bag-of-instructions model).
  IthemalModel model(&vocabulary_, SmallConfig(DecoderKind::kMlp));
  const assembly::BasicBlock forward_order =
      Parse("IMUL RAX, RBX\nADD RCX, 1");
  const assembly::BasicBlock reverse_order =
      Parse("ADD RCX, 1\nIMUL RAX, RBX");
  EXPECT_NE(model.Predict({&forward_order}, 0)[0],
            model.Predict({&reverse_order}, 0)[0]);
}

TEST_F(IthemalModelTest, VariableLengthInstructionsInOneBatch) {
  IthemalModel model(&vocabulary_, SmallConfig(DecoderKind::kMlp));
  // Token sequences of very different lengths must coexist in a batch.
  const assembly::BasicBlock short_block = Parse("CDQ");
  const assembly::BasicBlock long_block = Parse(
      "LOCK ADD DWORD PTR [RAX + 8*RBX + 64], ECX\n"
      "MOV QWORD PTR [RSI + 2*RDI - 16], RDX");
  ml::Tape tape;
  const auto predictions =
      model.Forward(tape, {&short_block, &long_block});
  EXPECT_EQ(tape.value(predictions[0]).rows(), 2);
  // Both predictions are finite.
  EXPECT_TRUE(std::isfinite(tape.value(predictions[0]).at(0, 0)));
  EXPECT_TRUE(std::isfinite(tape.value(predictions[0]).at(1, 0)));
}

TEST_F(IthemalModelTest, InferenceEntryPointsMatchRecordingForward) {
  // Predict and PredictBatchAllTasks run on inference (GradMode::kNone)
  // tapes; each must reproduce a recording-tape Forward bit for bit.
  constexpr int kTasks = 3;
  dataset::BlockGenerator generator(dataset::GeneratorConfig(), 13);
  const std::vector<assembly::BasicBlock> corpus = generator.GenerateMany(64);
  for (const auto decoder : {DecoderKind::kDotProduct, DecoderKind::kMlp}) {
    const IthemalModel model(&vocabulary_, SmallConfig(decoder, kTasks));
    for (const std::size_t batch_size : {1u, 7u, 64u}) {
      SCOPED_TRACE(batch_size);
      std::vector<const assembly::BasicBlock*> blocks;
      for (std::size_t i = 0; i < batch_size; ++i) {
        blocks.push_back(&corpus[i]);
      }
      ml::Tape recording;
      const std::vector<ml::Var> expected = model.Forward(recording, blocks);
      ASSERT_EQ(expected.size(), static_cast<std::size_t>(kTasks));
      const auto all_tasks = model.PredictBatchAllTasks(blocks);
      ASSERT_EQ(all_tasks.size(), batch_size);
      for (int task = 0; task < kTasks; ++task) {
        const ml::Tensor& column = recording.value(expected[task]);
        const std::vector<double> predicted = model.Predict(blocks, task);
        ASSERT_EQ(predicted.size(), batch_size);
        for (std::size_t i = 0; i < batch_size; ++i) {
          const float want = column.at(static_cast<int>(i), 0);
          const float got = static_cast<float>(predicted[i]);
          const float got_all = static_cast<float>(all_tasks[i][task]);
          EXPECT_EQ(std::memcmp(&got, &want, sizeof want), 0)
              << task << "/" << i;
          EXPECT_EQ(std::memcmp(&got_all, &want, sizeof want), 0)
              << task << "/" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace granite::ithemal
