/**
 * @file
 * Multi-task training walkthrough (paper §3.4 / §5.3): trains one
 * GRANITE model with three microarchitecture heads, compares it against
 * a single-task model of the same size and budget, and saves/reloads the
 * trained checkpoint.
 *
 * Run time: a few minutes.
 */
#include <cstdio>

#include "dataset/block_source.h"
#include "dataset/dataset.h"
#include "model/checkpoint.h"
#include "train/runners.h"

int main() {
  using namespace granite;

  std::printf("synthesizing 1000 labeled blocks...\n");
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 1000;
  synthesis.seed = 11;
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

  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(24);
  model_config.message_passing_iterations = 4;
  model_config.decoder_output_bias_init = 1.0f;

  train::TrainerConfig trainer_config;
  trainer_config.num_steps = 1500;
  trainer_config.batch_size = 32;
  trainer_config.adam.learning_rate = 0.02f;
  trainer_config.final_learning_rate = 0.001f;
  trainer_config.target_scale = 100.0;
  trainer_config.validation_every = 300;

  // ---- Single-task reference (Ivy Bridge only) ---------------------------
  std::printf("training a single-task model (Ivy Bridge)...\n");
  core::GraniteConfig single_config = model_config;
  single_config.num_tasks = 1;
  train::TrainerConfig single_trainer = trainer_config;
  single_trainer.tasks = {uarch::Microarchitecture::kIvyBridge};
  train::ModelRunner single_task(single_config, single_trainer);
  single_task.Train(train, validation);

  // ---- Multi-task model ---------------------------------------------------
  std::printf("training a multi-task model (all three "
              "microarchitectures)...\n");
  core::GraniteConfig multi_config = model_config;
  multi_config.num_tasks = 3;
  train::TrainerConfig multi_trainer = trainer_config;
  multi_trainer.tasks = {uarch::Microarchitecture::kIvyBridge,
                         uarch::Microarchitecture::kHaswell,
                         uarch::Microarchitecture::kSkylake};
  train::ModelRunner multi_task(multi_config, multi_trainer);
  multi_task.Train(train, validation);

  std::printf("\nheld-out MAPE:\n");
  std::printf("  %-11s single-task %.2f%%  multi-task %.2f%%\n",
              "Ivy Bridge",
              single_task.Evaluate(test, 0).mape * 100.0,
              multi_task.Evaluate(test, 0).mape * 100.0);
  for (int task = 1; task < 3; ++task) {
    const auto microarchitecture =
        static_cast<uarch::Microarchitecture>(task);
    std::printf("  %-11s %-11s %.2f%%  (multi-task head)\n",
                std::string(MicroarchitectureName(microarchitecture))
                    .c_str(),
                "", multi_task.Evaluate(test, task).mape * 100.0);
  }
  std::printf("\nThe multi-task model predicts all three "
              "microarchitectures for one-third the per-uarch training "
              "cost (paper §5.4).\n");

  // ---- Checkpointing -------------------------------------------------------
  const std::string path = "multi_task_granite.gmb";
  multi_task.Save(path);
  std::printf("\nsaved checkpoint to %s; reloading into a fresh model...\n",
              path.c_str());
  train::ModelRunner reloaded(model::LoadModel(path), multi_trainer);
  const double original =
      multi_task.Evaluate(test, 0).mape;
  const double restored = reloaded.Evaluate(test, 0).mape;
  std::printf("MAPE before save %.4f, after reload %.4f (identical: %s)\n",
              original, restored, original == restored ? "yes" : "no");
  return 0;
}
