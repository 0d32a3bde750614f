/**
 * @file
 * Golden-prediction regression tests for the serving path: with a fixed
 * RNG seed and a small trained model, predictions served through the
 * InferenceServer must bit-match direct GraniteModel::PredictBatch
 * calls, under both kernel backends, and a block's prediction must not
 * depend on which blocks share its batch. The backend is pinned through
 * GraniteConfig/TrainerConfig, so the test covers the reference backend
 * as well as the optimized process default.
 */
#include <algorithm>
#include <chrono>
#include <vector>

#include "core/granite_model.h"
#include "dataset/dataset.h"
#include "gtest/gtest.h"
#include "ml/kernels/kernel_backend.h"
#include "serve/inference_server.h"
#include "train/trainer.h"

namespace granite::serve {
namespace {

dataset::Dataset TinyDataset() {
  dataset::SynthesisConfig config;
  config.num_blocks = 24;
  config.seed = 11;
  config.generator.max_instructions = 6;
  return dataset::SynthesizeDataset(config);
}

core::GraniteConfig TinyModelConfig(ml::KernelBackendKind kind,
                                    int embedding_size = 8) {
  core::GraniteConfig config =
      core::GraniteConfig().WithEmbeddingSize(embedding_size);
  config.message_passing_iterations = 2;
  config.seed = 7;
  config.kernel_backend = kind;
  return config;
}

/** Builds a model with `kind` kernels and trains it for a few steps with
 * a fixed seed; every call is bit-reproducible per backend. */
void TrainSmallModel(core::GraniteModel& model,
                     const dataset::Dataset& data,
                     ml::KernelBackendKind kind) {
  train::TrainerConfig config;
  config.num_steps = 10;
  config.batch_size = 8;
  config.target_scale = 100.0;
  config.validation_every = 0;
  config.seed = 17;
  config.kernel_backend = kind;
  core::GraniteModel* raw = &model;
  train::Trainer trainer(
      [raw](ml::Tape& tape,
            const std::vector<const assembly::BasicBlock*>& blocks) {
        return raw->Forward(tape, blocks);
      },
      &model.parameters(), config);
  trainer.Train(data, dataset::Dataset());
}

class ServingRegressionTest
    : public ::testing::TestWithParam<ml::KernelBackendKind> {
 protected:
  ServingRegressionTest()
      : vocabulary_(graph::Vocabulary::CreateDefault()), data_(TinyDataset()) {}

  graph::Vocabulary vocabulary_;
  dataset::Dataset data_;
};

TEST_P(ServingRegressionTest, ServedPredictionsBitMatchPredictBatch) {
  const ml::KernelBackendKind kind = GetParam();
  core::GraniteModel model(&vocabulary_, TinyModelConfig(kind));
  TrainSmallModel(model, data_, kind);

  // The reference answers come from an untouched twin of the trained
  // model (no cache, no server), via one direct PredictBatch call.
  core::GraniteModel twin(&vocabulary_, TinyModelConfig(kind));
  twin.parameters().CopyValuesFrom(model.parameters());
  const std::vector<const assembly::BasicBlock*> blocks = data_.Blocks();
  const std::vector<double> direct = twin.PredictBatch(blocks, 0);

  InferenceServerConfig server_config;
  server_config.max_batch_size = static_cast<int>(blocks.size());
  server_config.batch_window = std::chrono::microseconds{10'000'000};
  server_config.prediction_cache_capacity = 64;
  InferenceServer server(&model, server_config);

  // Cold pass: one size-flushed batch, answered by a forward pass.
  std::vector<std::future<double>> cold;
  for (const assembly::BasicBlock* block : blocks) {
    cold.push_back(*server.Submit(block, 0));
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(cold[i].get(), direct[i]) << "cold, block " << i;
  }

  // Warm pass: served from the prediction cache, still bit-identical.
  const std::size_t passes = model.num_forward_passes();
  std::vector<std::future<double>> warm;
  for (const assembly::BasicBlock* block : blocks) {
    warm.push_back(*server.Submit(block, 0));
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(warm[i].get(), direct[i]) << "warm, block " << i;
  }
  EXPECT_EQ(model.num_forward_passes(), passes);
}

TEST_P(ServingRegressionTest, TrainingAndServingAreSeedDeterministic) {
  const ml::KernelBackendKind kind = GetParam();
  // Two end-to-end runs from the same seeds: train, serve one batch.
  std::vector<std::vector<double>> runs;
  for (int run = 0; run < 2; ++run) {
    core::GraniteModel model(&vocabulary_, TinyModelConfig(kind));
    TrainSmallModel(model, data_, kind);
    InferenceServerConfig server_config;
    server_config.max_batch_size = static_cast<int>(data_.size());
    server_config.batch_window = std::chrono::microseconds{10'000'000};
    InferenceServer server(&model, server_config);
    std::vector<std::future<double>> futures;
    for (const assembly::BasicBlock* block : data_.Blocks()) {
      futures.push_back(*server.Submit(block, 0));
    }
    std::vector<double> values;
    for (std::future<double>& future : futures) {
      values.push_back(future.get());
    }
    runs.push_back(std::move(values));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST_P(ServingRegressionTest, BatchCompositionInvariantAtEmbedding16) {
  // At embedding 16 every matmul output is at least one full 16-column
  // micro-kernel sliver wide, so a row's sum order would show if it
  // depended on the row's position in the batch. Each block's prediction
  // alone must equal its prediction inside batches of every composition.
  const ml::KernelBackendKind kind = GetParam();
  core::GraniteModel model(&vocabulary_,
                           TinyModelConfig(kind, /*embedding_size=*/16));
  TrainSmallModel(model, data_, kind);
  const std::vector<const assembly::BasicBlock*> blocks = data_.Blocks();
  std::vector<double> alone(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    alone[i] = model.Predict({blocks[i]}, 0)[0];
  }

  const std::vector<double> whole = model.Predict(blocks, 0);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(whole[i], alone[i]) << "whole batch, block " << i;
  }
  const std::vector<const assembly::BasicBlock*> reversed(blocks.rbegin(),
                                                          blocks.rend());
  const std::vector<double> backwards = model.Predict(reversed, 0);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(backwards[blocks.size() - 1 - i], alone[i])
        << "reversed batch, block " << i;
  }
  for (const std::size_t chunk : {std::size_t{3}, std::size_t{5}}) {
    for (std::size_t begin = 0; begin < blocks.size(); begin += chunk) {
      const std::size_t end = std::min(blocks.size(), begin + chunk);
      const std::vector<double> part = model.Predict(
          {blocks.begin() + begin, blocks.begin() + end}, 0);
      for (std::size_t i = begin; i < end; ++i) {
        EXPECT_EQ(part[i - begin], alone[i])
            << "chunk of " << chunk << ", block " << i;
      }
    }
  }

  // Served in size-flushed batches of 6: the same bits again.
  InferenceServerConfig server_config;
  server_config.max_batch_size = 6;
  server_config.batch_window = std::chrono::microseconds{10'000'000};
  InferenceServer server(&model, server_config);
  std::vector<std::future<double>> served;
  for (const assembly::BasicBlock* block : blocks) {
    served.push_back(*server.Submit(block, 0));
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(served[i].get(), alone[i]) << "served, block " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothKernelBackends, ServingRegressionTest,
    ::testing::Values(ml::KernelBackendKind::kReference,
                      ml::KernelBackendKind::kOptimized),
    [](const ::testing::TestParamInfo<ml::KernelBackendKind>& info) {
      return info.param == ml::KernelBackendKind::kReference ? "reference"
                                                             : "optimized";
    });

}  // namespace
}  // namespace granite::serve
