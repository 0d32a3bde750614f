/**
 * @file
 * End-to-end integration tests: synthesize a dataset with the paper's
 * splits, train GRANITE, and verify generalization to the held-out test
 * set (the Table 5 pipeline at miniature scale).
 */
#include "gtest/gtest.h"
#include "base/statistics.h"
#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "model/checkpoint.h"
#include "train/trainer.h"

namespace granite::train {
namespace {

TEST(IntegrationTest, GraniteGeneralizesToHeldOutBlocks) {
  // Synthesize an Ithemal-style dataset and apply the paper's 83/17
  // train/test split and 98/2 train/validation split (§4).
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 160;
  synthesis.seed = 21;
  synthesis.generator.max_instructions = 8;
  const dataset::Dataset dataset = dataset::SynthesizeDataset(synthesis);
  const dataset::IndexSplit train_test =
      dataset::SplitIndices(dataset.size(), 0.83, 1);
  const dataset::SubsetBlockSource train_part(&dataset, train_test.first);
  const dataset::SubsetBlockSource test(&dataset, train_test.second);
  const dataset::IndexSplit train_validation =
      dataset::SplitIndices(train_part.size(), 0.98, 2);
  const dataset::SubsetBlockSource train(&train_part,
                                         train_validation.first);
  const dataset::SubsetBlockSource validation(&train_part,
                                              train_validation.second);

  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(16);
  model_config.message_passing_iterations = 4;
  model_config.decoder_output_bias_init = 1.0f;
  core::GraniteModel model(&vocabulary, model_config);

  TrainerConfig config;
  config.num_steps = 800;
  config.batch_size = 16;
  // The tuned bench recipe: decaying learning rate and mean-initialized
  // decoder bias make short schedules converge reliably.
  config.adam.learning_rate = 0.008f;
  config.final_learning_rate = 0.0008f;
  config.target_scale = 100.0;
  config.validation_every = 200;
  Trainer trainer(
      [&model](ml::Tape& tape,
               const std::vector<const assembly::BasicBlock*>& blocks) {
        return model.Forward(tape, blocks);
      },
      &model.parameters(), config);
  trainer.Train(train, validation);

  const EvaluationResult result = trainer.EvaluateTask(test, 0);
  // At miniature scale we cannot reach the paper's 6.9% MAPE, but the
  // model must clearly generalize: better than a predict-the-mean
  // baseline and strongly rank-correlated.
  const std::vector<double> actual =
      test.Throughputs(uarch::Microarchitecture::kIvyBridge);
  const double mean = Mean(actual);
  const double mean_baseline_mape = MeanAbsolutePercentageError(
      actual, std::vector<double>(actual.size(), mean));
  EXPECT_LT(result.mape, mean_baseline_mape);
  EXPECT_GT(result.spearman, 0.5);
  // Pearson is dominated by a handful of heavyweight outlier blocks
  // (LOCK / DIV) that a 16-dimensional model trained for 800 steps
  // cannot pin down; 0.4 is a robust floor at this scale. The recipe
  // trains to the same bits in plain and ASan/UBSan builds and on either
  // kernel backend, so one floor holds everywhere.
  constexpr double kPearsonFloor = 0.4;
  EXPECT_GT(result.pearson, kPearsonFloor);
  EXPECT_LT(result.mape, 0.6);
}

TEST(IntegrationTest, CrossToolEvaluationDegradesAccuracy) {
  // The paper observes that testing an Ithemal-dataset-trained model on
  // BHive labels degrades accuracy because the measurement methodology
  // differs. Our tool models must reproduce that shape.
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 120;
  synthesis.seed = 33;
  synthesis.generator.max_instructions = 6;
  synthesis.tool = uarch::MeasurementTool::kIthemalTool;
  const dataset::Dataset ithemal_style =
      dataset::SynthesizeDataset(synthesis);
  const dataset::IndexSplit split =
      dataset::SplitIndices(ithemal_style.size(), 0.83, 4);
  const dataset::SubsetBlockSource train(&ithemal_style, split.first);
  const dataset::SubsetBlockSource test(&ithemal_style, split.second);
  const dataset::Dataset bhive_test =
      dataset::RelabelDataset(test, uarch::MeasurementTool::kBHiveTool);

  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(16);
  model_config.message_passing_iterations = 2;
  core::GraniteModel model(&vocabulary, model_config);
  TrainerConfig config;
  config.num_steps = 300;
  config.batch_size = 16;
  config.adam.learning_rate = 0.02f;
  config.target_scale = 100.0;
  config.validation_every = 0;
  Trainer trainer(
      [&model](ml::Tape& tape,
               const std::vector<const assembly::BasicBlock*>& blocks) {
        return model.Forward(tape, blocks);
      },
      &model.parameters(), config);
  trainer.Train(train, dataset::Dataset());

  const double same_tool_mape = trainer.EvaluateTask(test, 0).mape;
  const double cross_tool_mape = trainer.EvaluateTask(bhive_test, 0).mape;
  EXPECT_GT(cross_tool_mape, same_tool_mape);
}

TEST(IntegrationTest, CheckpointReloadedModelMatchesTrainedModel) {
  const std::string path = ::testing::TempDir() + "/integration_ckpt.gmb";
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 24;
  synthesis.seed = 9;
  const dataset::Dataset data = dataset::SynthesizeDataset(synthesis);

  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(8);
  model_config.message_passing_iterations = 2;
  core::GraniteModel model(&vocabulary, model_config);
  TrainerConfig config;
  config.num_steps = 60;
  config.batch_size = 8;
  config.adam.learning_rate = 0.02f;
  config.target_scale = 100.0;
  config.validation_every = 0;
  Trainer trainer(
      [&model](ml::Tape& tape,
               const std::vector<const assembly::BasicBlock*>& blocks) {
        return model.Forward(tape, blocks);
      },
      &model.parameters(), config);
  trainer.Train(data, dataset::Dataset());
  model::SaveModel(model, path);
  const std::vector<double> trained_predictions = trainer.Predict(data, 0);

  const std::unique_ptr<model::ThroughputPredictor> fresh =
      model::LoadModel(path);
  Trainer fresh_trainer(
      [&fresh](ml::Tape& tape,
               const std::vector<const assembly::BasicBlock*>& blocks) {
        return fresh->ForwardGraphsOrBlocks(tape, &blocks, nullptr);
      },
      &fresh->parameters(), config);
  const std::vector<double> reloaded_predictions =
      fresh_trainer.Predict(data, 0);
  ASSERT_EQ(trained_predictions.size(), reloaded_predictions.size());
  for (std::size_t i = 0; i < trained_predictions.size(); ++i) {
    EXPECT_EQ(trained_predictions[i], reloaded_predictions[i]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace granite::train
