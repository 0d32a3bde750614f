/**
 * @file
 * Reproduces Table 9: comparison between training loss functions (MAPE,
 * MSE, relative MSE, Huber, relative Huber with delta = 1), reporting
 * all five evaluation metrics per microarchitecture.
 *
 * Expected shape: training with MAPE (or relative MSE) gives the best
 * MAPE; the unnormalized losses (MSE, Huber) are far worse because of
 * the high dynamic range of the throughput values. Note the raw MSE /
 * Huber magnitudes: throughputs are cycles per 100 iterations, which is
 * why the paper's (and our) MSE values are ~1e6.
 */
#include <array>
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Table 9: loss-function comparison", scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 901);
  const int steps = scale.granite_steps / 2;

  const std::vector<ml::LossFunction> losses = {
      ml::LossFunction::kMeanAbsolutePercentageError,
      ml::LossFunction::kMeanSquaredError,
      ml::LossFunction::kRelativeMeanSquaredError,
      ml::LossFunction::kHuber,
      ml::LossFunction::kRelativeHuber,
  };

  // One multi-task model per training loss.
  std::vector<std::array<train::EvaluationResult, 3>> results;
  for (const ml::LossFunction loss : losses) {
    std::printf("training GRANITE with %s loss...\n",
                ml::LossFunctionName(loss).c_str());
    train::TrainerConfig config = MultiTaskTrainerConfig(scale, steps);
    config.loss = loss;
    // The paper trains the unnormalized losses on the raw value scale;
    // their gradients are already huge, so keep gradient clipping on to
    // mirror the paper's stabilization.
    if (loss == ml::LossFunction::kMeanSquaredError ||
        loss == ml::LossFunction::kHuber) {
      config.adam.gradient_clip_norm = 10.0f;
    }
    train::ModelRunner runner(GraniteBenchConfig(scale, 3, data.train), config);
    runner.Train(data.train, data.validation);
    std::array<train::EvaluationResult, 3> per_task;
    for (int task = 0; task < 3; ++task) {
      per_task[task] = runner.Evaluate(data.test, task);
    }
    results.push_back(per_task);
  }

  const std::vector<int> widths = {14, 14, 8, 14, 12, 12, 12};
  std::printf("\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "Loss", "MAPE", "MSE", "Rel. MSE", "Huber",
            "Rel. Huber"},
           widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    for (std::size_t i = 0; i < losses.size(); ++i) {
      const train::EvaluationResult& result = results[i][task];
      PrintRow({i == 0 ? std::string(
                             MicroarchitectureName(microarchitecture))
                       : std::string(),
                ml::LossFunctionName(losses[i]), Percent(result.mape),
                Fixed(result.mse, 1), Fixed(result.relative_mse, 3),
                Fixed(result.mean_huber, 2),
                Fixed(result.mean_relative_huber, 4)},
               widths);
    }
    PrintSeparator(widths);
  }
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
