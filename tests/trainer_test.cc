/**
 * @file
 * Tests of the training harness: overfitting a tiny dataset with GRANITE
 * and the Ithemal baselines, multi-task updates, checkpoint selection.
 */
#include <cstring>

#include "gtest/gtest.h"
#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "train/trainer.h"

namespace granite::train {
namespace {

dataset::Dataset TinyDataset(std::size_t num_blocks, uint64_t seed = 5) {
  dataset::SynthesisConfig config;
  config.num_blocks = num_blocks;
  config.seed = seed;
  config.generator.max_instructions = 6;
  return dataset::SynthesizeDataset(config);
}

TrainerConfig FastConfig(int steps) {
  TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = 8;
  config.adam.learning_rate = 0.02f;
  config.target_scale = 100.0;
  config.validation_every = 0;
  config.seed = 17;
  return config;
}

core::GraniteConfig TinyGraniteConfig(int num_tasks = 1) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
  config.message_passing_iterations = 2;
  config.num_tasks = num_tasks;
  return config;
}

ForwardFn GraniteForward(core::GraniteModel& model) {
  return [&model](ml::Tape& tape,
                  const std::vector<const assembly::BasicBlock*>& blocks) {
    return model.Forward(tape, blocks);
  };
}

ForwardFn IthemalForward(ithemal::IthemalModel& model) {
  return [&model](ml::Tape& tape,
                  const std::vector<const assembly::BasicBlock*>& blocks) {
    return model.Forward(tape, blocks);
  };
}

TEST(TrainerTest, GraniteOverfitsTinyDataset) {
  const dataset::Dataset data = TinyDataset(24);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig());
  Trainer trainer(GraniteForward(model), &model.parameters(),
                  FastConfig(250));
  const double initial_mape = trainer.EvaluateTask(data, 0).mape;
  const TrainingResult result = trainer.Train(data, dataset::Dataset());
  const double final_mape = trainer.EvaluateTask(data, 0).mape;
  EXPECT_LT(final_mape, initial_mape * 0.5);
  EXPECT_LT(final_mape, 0.4);
  EXPECT_FALSE(result.loss_history.empty());
}

TEST(TrainerTest, IthemalPlusOverfitsTinyDataset) {
  const dataset::Dataset data = TinyDataset(24);
  graph::Vocabulary vocabulary = ithemal::CreateIthemalVocabulary();
  ithemal::IthemalConfig config =
      ithemal::IthemalConfig().WithEmbeddingSize(8);
  config.decoder = ithemal::DecoderKind::kMlp;
  ithemal::IthemalModel model(&vocabulary, config);
  Trainer trainer(IthemalForward(model), &model.parameters(),
                  FastConfig(250));
  const double initial_mape = trainer.EvaluateTask(data, 0).mape;
  trainer.Train(data, dataset::Dataset());
  const double final_mape = trainer.EvaluateTask(data, 0).mape;
  EXPECT_LT(final_mape, initial_mape * 0.6);
}

TEST(TrainerTest, MultiTaskTrainingImprovesAllHeads) {
  const dataset::Dataset data = TinyDataset(24);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig(/*num_tasks=*/3));
  TrainerConfig config = FastConfig(250);
  config.tasks = {uarch::Microarchitecture::kIvyBridge,
                  uarch::Microarchitecture::kHaswell,
                  uarch::Microarchitecture::kSkylake};
  Trainer trainer(GraniteForward(model), &model.parameters(), config);
  std::vector<double> initial(3);
  for (int task = 0; task < 3; ++task) {
    initial[task] = trainer.EvaluateTask(data, task).mape;
  }
  trainer.Train(data, dataset::Dataset());
  for (int task = 0; task < 3; ++task) {
    EXPECT_LT(trainer.EvaluateTask(data, task).mape, initial[task] * 0.6)
        << "task " << task;
  }
}

TEST(TrainerTest, ValidationCheckpointSelection) {
  const dataset::Dataset data = TinyDataset(30);
  const dataset::IndexSplit split =
      dataset::SplitIndices(data.size(), 0.8, 3);
  const dataset::SubsetBlockSource train(&data, split.first);
  const dataset::SubsetBlockSource validation(&data, split.second);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig());
  TrainerConfig config = FastConfig(120);
  config.validation_every = 30;
  Trainer trainer(GraniteForward(model), &model.parameters(), config);
  const TrainingResult result = trainer.Train(train, validation);
  EXPECT_GT(result.best_step, 0);
  EXPECT_GT(result.best_validation_mape, 0.0);
  // The restored checkpoint reproduces the best validation MAPE.
  double validation_mape = trainer.EvaluateTask(validation, 0).mape;
  EXPECT_NEAR(validation_mape, result.best_validation_mape, 1e-6);
}

TEST(TrainerTest, TargetScaleRoundTripsInPredict) {
  const dataset::Dataset data = TinyDataset(8);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig());
  TrainerConfig scaled_config = FastConfig(1);
  scaled_config.target_scale = 100.0;
  TrainerConfig unit_config = FastConfig(1);
  unit_config.target_scale = 1.0;
  Trainer scaled(GraniteForward(model), &model.parameters(), scaled_config);
  Trainer unit(GraniteForward(model), &model.parameters(), unit_config);
  const std::vector<double> scaled_predictions = scaled.Predict(data, 0);
  const std::vector<double> unit_predictions = unit.Predict(data, 0);
  for (std::size_t i = 0; i < scaled_predictions.size(); ++i) {
    EXPECT_NEAR(scaled_predictions[i], unit_predictions[i] * 100.0, 1e-3);
  }
}

TEST(TrainerTest, PredictMatchesRecordingForward) {
  // Trainer::Predict evaluates on inference (GradMode::kNone) tapes, on
  // the block path and on the graph path; both must reproduce a
  // recording-tape forward over the same batches bit for bit.
  const dataset::Dataset data = TinyDataset(70);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig(2));
  for (const bool graph_path : {false, true}) {
    for (const int batch_size : {1, 7, 64}) {
      SCOPED_TRACE(testing::Message() << "graph_path=" << graph_path
                                      << " batch=" << batch_size);
      TrainerConfig config = FastConfig(1);
      config.eval_batch_size = batch_size;
      Trainer trainer(GraniteForward(model), &model.parameters(), config);
      if (graph_path) {
        trainer.SetGraphPath(
            [&model](ml::Tape& tape, const graph::BatchedGraph& batch) {
              return model.ForwardGraphs(tape, batch);
            },
            [&model](const std::vector<const assembly::BasicBlock*>& blocks) {
              return model.EncodeBlocks(blocks);
            });
      }
      for (int task = 0; task < 2; ++task) {
        const std::vector<double> predicted = trainer.Predict(data, task);
        ASSERT_EQ(predicted.size(), data.size());
        for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
          const std::size_t end = std::min(begin + batch_size, data.size());
          std::vector<const assembly::BasicBlock*> blocks;
          for (std::size_t i = begin; i < end; ++i) {
            blocks.push_back(&data[i].block);
          }
          ml::Tape recording;
          const ml::Tensor& column =
              recording.value(model.Forward(recording, blocks)[task]);
          for (std::size_t i = begin; i < end; ++i) {
            const double want = column.at(static_cast<int>(i - begin), 0) *
                                config.target_scale;
            EXPECT_EQ(std::memcmp(&predicted[i], &want, sizeof want), 0)
                << task << "/" << i;
          }
        }
      }
    }
  }
}

TEST(TrainerTest, DeterministicTraining) {
  const dataset::Dataset data = TinyDataset(16);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  double final_losses[2];
  for (int run = 0; run < 2; ++run) {
    core::GraniteModel model(&vocabulary, TinyGraniteConfig());
    Trainer trainer(GraniteForward(model), &model.parameters(),
                    FastConfig(40));
    final_losses[run] = trainer.Train(data, dataset::Dataset())
                            .final_train_loss;
  }
  EXPECT_EQ(final_losses[0], final_losses[1]);
}

TEST(TrainerTest, LossHistoryTrendsDownward) {
  const dataset::Dataset data = TinyDataset(16);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig());
  Trainer trainer(GraniteForward(model), &model.parameters(),
                  FastConfig(200));
  const TrainingResult result = trainer.Train(data, dataset::Dataset());
  ASSERT_GE(result.loss_history.size(), 4u);
  const double early = result.loss_history[1].second;
  const double late = result.loss_history.back().second;
  EXPECT_LT(late, early);
}

TEST(TrainerTest, AlternativeLossFunctionsTrain) {
  const dataset::Dataset data = TinyDataset(16);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  for (const ml::LossFunction loss :
       {ml::LossFunction::kRelativeMeanSquaredError,
        ml::LossFunction::kRelativeHuber}) {
    core::GraniteModel model(&vocabulary, TinyGraniteConfig());
    TrainerConfig config = FastConfig(150);
    config.loss = loss;
    Trainer trainer(GraniteForward(model), &model.parameters(), config);
    const double initial_mape = trainer.EvaluateTask(data, 0).mape;
    trainer.Train(data, dataset::Dataset());
    EXPECT_LT(trainer.EvaluateTask(data, 0).mape, initial_mape)
        << ml::LossFunctionName(loss);
  }
}

}  // namespace
}  // namespace granite::train
