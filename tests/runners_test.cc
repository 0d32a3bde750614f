/**
 * @file
 * Tests of the model runner bundles and the per-instruction
 * contribution API.
 */
#include <cmath>
#include <filesystem>
#include <numeric>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "model/checkpoint.h"
#include "train/runners.h"

namespace granite::train {
namespace {

dataset::Dataset TinyDataset(std::size_t count) {
  dataset::SynthesisConfig config;
  config.num_blocks = count;
  config.seed = 3;
  config.generator.max_instructions = 5;
  return dataset::SynthesizeDataset(config);
}

TrainerConfig FastConfig(int steps, int num_tasks) {
  TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = 8;
  config.adam.learning_rate = 0.02f;
  config.final_learning_rate = 0.002f;
  config.target_scale = 100.0;
  config.validation_every = 0;
  if (num_tasks == 3) {
    config.tasks = {uarch::Microarchitecture::kIvyBridge,
                    uarch::Microarchitecture::kHaswell,
                    uarch::Microarchitecture::kSkylake};
  }
  return config;
}

core::GraniteConfig TinyGranite(int num_tasks) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
  config.message_passing_iterations = 2;
  config.num_tasks = num_tasks;
  return config;
}

TEST(ModelRunnerTest, GraniteTrainEvaluatePredict) {
  const dataset::Dataset data = TinyDataset(16);
  ModelRunner runner(TinyGranite(1), FastConfig(60, 1));
  const double before = runner.Evaluate(data, 0).mape;
  runner.Train(data, dataset::Dataset());
  EXPECT_LT(runner.Evaluate(data, 0).mape, before);
  EXPECT_EQ(runner.Predict(data, 0).size(), data.size());
}

TEST(ModelRunnerTest, IthemalTrainEvaluatePredict) {
  const dataset::Dataset data = TinyDataset(16);
  ithemal::IthemalConfig config =
      ithemal::IthemalConfig().WithEmbeddingSize(8);
  config.decoder = ithemal::DecoderKind::kMlp;
  ModelRunner runner(config, FastConfig(60, 1));
  const double before = runner.Evaluate(data, 0).mape;
  runner.Train(data, dataset::Dataset());
  EXPECT_LT(runner.Evaluate(data, 0).mape, before);
  EXPECT_EQ(runner.Predict(data, 0).size(), data.size());
}

TEST(ModelRunnerTest, GraniteMultiTaskHeadsAllEvaluate) {
  const dataset::Dataset data = TinyDataset(12);
  ModelRunner runner(TinyGranite(3), FastConfig(30, 3));
  runner.Train(data, dataset::Dataset());
  for (int task = 0; task < 3; ++task) {
    EXPECT_GT(runner.Evaluate(data, task).count, 0u);
  }
}

TEST(PerInstructionContributionsTest, SumToBlockPrediction) {
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGranite(1));
  const auto block_a = assembly::ParseBasicBlock(
      "ADD RAX, RBX\nIMUL RCX, RAX\nDIV RCX");
  const auto block_b = assembly::ParseBasicBlock("NOP");
  ASSERT_TRUE(block_a.ok());
  ASSERT_TRUE(block_b.ok());
  const std::vector<const assembly::BasicBlock*> blocks = {
      &*block_a.value, &*block_b.value};

  const auto contributions = model.PredictPerInstruction(blocks, 0);
  const auto totals = model.Predict(blocks, 0);
  ASSERT_EQ(contributions.size(), 2u);
  EXPECT_EQ(contributions[0].size(), 3u);
  EXPECT_EQ(contributions[1].size(), 1u);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const double sum = std::accumulate(contributions[i].begin(),
                                       contributions[i].end(), 0.0);
    EXPECT_NEAR(sum, totals[i], 1e-4) << "block " << i;
  }
}

TEST(PerInstructionContributionsTest, InstructionsDiffer) {
  // Different instructions in context get different contributions from a
  // randomly initialized model (embeddings differ per mnemonic).
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGranite(1));
  const auto block = assembly::ParseBasicBlock("ADD RAX, RBX\nDIV RCX");
  ASSERT_TRUE(block.ok());
  const auto contributions =
      model.PredictPerInstruction({&*block.value}, 0);
  ASSERT_EQ(contributions[0].size(), 2u);
  EXPECT_NE(contributions[0][0], contributions[0][1]);
}

TEST(ModelRunnerTest, WrapsACheckpointLoadedPredictor) {
  // Train → Save → Load → wrap in a fresh runner: evaluation through the
  // loaded bundle matches the original runner bit-for-bit (the Trainer
  // drives both through the same ThroughputPredictor interface).
  const dataset::Dataset data = TinyDataset(16);
  ModelRunner original(TinyGranite(1), FastConfig(40, 1));
  original.Train(data, dataset::Dataset());
  const std::string path =
      (std::filesystem::temp_directory_path() / "runners_test.gmb")
          .string();
  original.Save(path);

  ModelRunner reloaded(model::LoadModel(path), FastConfig(40, 1));
  EXPECT_EQ(reloaded.Predict(data, 0), original.Predict(data, 0));
  EXPECT_EQ(reloaded.Evaluate(data, 0).mape,
            original.Evaluate(data, 0).mape);
  std::filesystem::remove(path);
}

TEST(ModelRunnerTest, IthemalHasNoGraphPathButTrainsTheSame) {
  // The unified runner only wires the pre-encoded-graph pipeline for
  // models that support it; Ithemal trains through the block path.
  const dataset::Dataset data = TinyDataset(12);
  ithemal::IthemalConfig config =
      ithemal::IthemalConfig().WithEmbeddingSize(8);
  config.decoder = ithemal::DecoderKind::kMlp;
  ModelRunner runner(config, FastConfig(20, 1));
  EXPECT_FALSE(runner.model().SupportsGraphEncoding());
  const TrainingResult result = runner.Train(data, dataset::Dataset());
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(TrainerConfigTest, LearningRateDecayReachesFloor) {
  // Indirect check: a 2-step run with a huge decay must not blow up and
  // must apply the final rate on the last step (no assertion on weights;
  // the behavior contract is "no NaNs, training proceeds").
  const dataset::Dataset data = TinyDataset(8);
  TrainerConfig config = FastConfig(2, 1);
  config.adam.learning_rate = 0.5f;
  config.final_learning_rate = 1e-4f;
  ModelRunner runner(TinyGranite(1), config);
  const TrainingResult result = runner.Train(data, dataset::Dataset());
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

}  // namespace
}  // namespace granite::train
