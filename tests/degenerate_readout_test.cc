/**
 * @file
 * Degenerate readout sets through every entry point of the GRANITE
 * model. The last message-passing iteration updates only the edges into
 * mnemonic nodes and the mnemonic nodes themselves, so a batch of NOP
 * blocks (a mnemonic node with no edge into it) updates no edge, and a
 * batch of empty blocks has no mnemonic node at all. Such batches, and
 * batches mixing them with normal blocks, must predict every block
 * exactly as it predicts alone, and must train to finite parameters.
 */
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <optional>
#include <vector>

#include "asm/parser.h"
#include "core/granite_model.h"
#include "dataset/dataset.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "serve/inference_server.h"
#include "train/trainer.h"

namespace granite {
namespace {

constexpr int kTasks = 2;

core::GraniteConfig SmallConfig(int iterations) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
  config.message_passing_iterations = iterations;
  config.num_tasks = kTasks;
  config.decoder_output_bias_init = 0.5f;
  return config;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

class DegenerateReadoutTest : public ::testing::TestWithParam<int> {
 protected:
  DegenerateReadoutTest()
      : vocabulary_(graph::Vocabulary::CreateDefault()),
        model_(&vocabulary_, SmallConfig(GetParam())),
        nop_(*assembly::ParseBasicBlock("NOP").value) {
    dataset::BlockGenerator generator(dataset::GeneratorConfig(), 17);
    normal_ = generator.GenerateMany(4);
  }

  /** The batches under test: NOP only, empty only, and two mixes. */
  std::vector<std::vector<const assembly::BasicBlock*>> Batches() const {
    std::vector<std::vector<const assembly::BasicBlock*>> batches;
    batches.push_back({&nop_});
    batches.push_back({&nop_, &nop_});
    batches.push_back({&empty_});
    batches.push_back({&empty_, &empty_});
    batches.push_back({&empty_, &nop_});
    batches.push_back(
        {&normal_[0], &nop_, &empty_, &normal_[1], &nop_, &normal_[2]});
    batches.push_back({&empty_, &normal_[3], &empty_, &nop_, &normal_[0]});
    return batches;
  }

  graph::Vocabulary vocabulary_;
  core::GraniteModel model_;
  const assembly::BasicBlock empty_;
  const assembly::BasicBlock nop_;
  std::vector<assembly::BasicBlock> normal_;
};

TEST_P(DegenerateReadoutTest, PredictBatchMatchesOneAtATime) {
  for (const auto& batch : Batches()) {
    const auto predictions = model_.PredictBatchAllTasks(batch);
    ASSERT_EQ(predictions.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto alone = model_.PredictBatchAllTasks({batch[i]});
      ASSERT_EQ(predictions[i].size(), static_cast<std::size_t>(kTasks));
      for (int task = 0; task < kTasks; ++task) {
        EXPECT_TRUE(SameBits(predictions[i][task], alone[0][task]))
            << i << "/" << task;
        EXPECT_TRUE(std::isfinite(predictions[i][task]));
        EXPECT_TRUE(SameBits(model_.PredictBatch(batch, task)[i],
                             predictions[i][task]));
      }
      // A block without instructions sums no contribution.
      if (batch[i] == &empty_) {
        EXPECT_EQ(predictions[i][0], 0.0);
      }
    }
  }
}

TEST_P(DegenerateReadoutTest, PredictPerInstructionMatchesOneAtATime) {
  for (const auto& batch : Batches()) {
    for (int task = 0; task < kTasks; ++task) {
      const auto contributions = model_.PredictPerInstruction(batch, task);
      ASSERT_EQ(contributions.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto alone = model_.PredictPerInstruction({batch[i]}, task);
        ASSERT_EQ(contributions[i].size(), batch[i]->size());
        ASSERT_EQ(alone[0].size(), batch[i]->size());
        for (std::size_t k = 0; k < contributions[i].size(); ++k) {
          EXPECT_TRUE(SameBits(contributions[i][k], alone[0][k]))
              << i << "/" << k;
        }
      }
    }
  }
}

TEST_P(DegenerateReadoutTest, ServerBatchMatchesOneAtATime) {
  for (const auto& batch : Batches()) {
    // One size-flushed batch holds every request of both task heads.
    serve::InferenceServerConfig config;
    config.max_batch_size = static_cast<int>(batch.size()) * kTasks;
    config.batch_window = std::chrono::microseconds{10'000'000};
    serve::InferenceServer server(&model_, config);
    std::vector<serve::BatchSubmitRequest> requests;
    for (int task = 0; task < kTasks; ++task) {
      for (const assembly::BasicBlock* block : batch) {
        requests.push_back({block, task});
      }
    }
    auto futures = server.SubmitMany(requests);
    ASSERT_EQ(futures.size(), requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r) {
      ASSERT_TRUE(futures[r].has_value());
      const double served = futures[r]->get();
      const double alone =
          model_.Predict({requests[r].block}, requests[r].task)[0];
      EXPECT_TRUE(SameBits(served, alone)) << r;
    }
    EXPECT_EQ(server.Stats().batches, 1u);
  }
}

TEST_P(DegenerateReadoutTest, TrainingStepOnAMixedBatch) {
  // Two NOP blocks, two empty blocks and four normal ones in one batch
  // of eight, split across two workers' shards.
  std::vector<dataset::Sample> samples;
  const auto add = [&samples](const assembly::BasicBlock& block) {
    dataset::Sample sample;
    sample.block = block;
    sample.throughput = {150.0, 140.0, 130.0};
    samples.push_back(sample);
  };
  for (int half = 0; half < 2; ++half) {
    add(nop_);
    add(empty_);
    add(normal_[2 * half]);
    add(normal_[2 * half + 1]);
  }
  const dataset::Dataset data(std::move(samples));

  train::TrainerConfig config;
  config.num_steps = 1;
  config.batch_size = 8;
  config.num_workers = 2;
  config.prefetch = true;
  config.validation_every = 0;
  config.target_scale = 100.0;
  config.tasks = {uarch::Microarchitecture::kIvyBridge,
                  uarch::Microarchitecture::kHaswell};
  core::GraniteModel* model = &model_;
  train::Trainer trainer(
      [model](ml::Tape& tape,
              const std::vector<const assembly::BasicBlock*>& blocks) {
        return model->Forward(tape, blocks);
      },
      &model_.parameters(), config);
  trainer.SetGraphPath(
      [model](ml::Tape& tape, const graph::BatchedGraph& batch) {
        return model->ForwardGraphs(tape, batch);
      },
      [model](const std::vector<const assembly::BasicBlock*>& blocks) {
        return model->EncodeBlocks(blocks);
      });
  const std::vector<ml::Tensor> before = model_.parameters().SnapshotValues();
  const train::TrainingResult result = trainer.Train(data, dataset::Dataset());
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  EXPECT_GT(result.final_train_loss, 0.0);

  bool changed = false;
  const auto& parameters = model_.parameters().parameters();
  for (std::size_t p = 0; p < parameters.size(); ++p) {
    const ml::Tensor& value = parameters[p]->value;
    for (std::size_t i = 0; i < value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(value.data()[i])) << parameters[p]->name;
      changed = changed || value.data()[i] != before[p].data()[i];
    }
  }
  EXPECT_TRUE(changed);
}

// One iteration makes the readout iteration the first one too.
INSTANTIATE_TEST_SUITE_P(Iterations, DegenerateReadoutTest,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace granite
