/**
 * @file
 * Reproduces Table 7: sensitivity of GRANITE to the number of message
 * passing iterations (sweep over 1, 2, 4, 8, 12).
 *
 * Expected shape: error decreases with more iterations up to a sweet
 * spot (8 in the paper) and does not improve (or degrades) beyond it.
 */
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner(
      "Table 7: sensitivity to the number of message passing iterations",
      scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 701);
  // A deeper message-passing stack costs proportionally more per step;
  // the sweep uses half the Table 5 step count per configuration.
  const int steps = scale.granite_steps / 2;

  const std::vector<int> widths = {14, 12, 10};
  PrintSeparator(widths);
  PrintRow({"uarch", "# MP iters", "MAPE"}, widths);
  PrintSeparator(widths);

  // One multi-task model per iteration count; rows grouped per uarch at
  // the end, so collect results first.
  const std::vector<int> iteration_counts = {1, 2, 4, 8, 12};
  std::vector<std::array<double, 3>> mape_by_config;
  for (const int iterations : iteration_counts) {
    Scale swept = scale;
    swept.message_passing_iterations = iterations;
    std::printf("training GRANITE with %d message passing iterations...\n",
                iterations);
    train::ModelRunner runner(GraniteBenchConfig(swept, 3, data.train),
                               MultiTaskTrainerConfig(swept, steps));
    runner.Train(data.train, data.validation);
    std::array<double, 3> mape{};
    for (int task = 0; task < 3; ++task) {
      mape[task] = runner.Evaluate(data.test, task).mape;
    }
    mape_by_config.push_back(mape);
  }

  std::printf("\n");
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    for (std::size_t i = 0; i < iteration_counts.size(); ++i) {
      PrintRow({i == 0 ? std::string(
                             MicroarchitectureName(microarchitecture))
                       : std::string(),
                std::to_string(iteration_counts[i]),
                Percent(mape_by_config[i][task])},
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
