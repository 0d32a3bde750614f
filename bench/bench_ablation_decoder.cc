/**
 * @file
 * Reproduces the §5.2 decoder ablation: the impact of replacing
 * Ithemal's dot-product decoder with the multi-layer ReLU decoder
 * network (turning Ithemal into Ithemal+). The paper reports accuracy
 * improvements of 0.25% / 0.39% / 1.1% MAPE on Ivy Bridge / Haswell /
 * Skylake.
 *
 * Expected shape: the MLP decoder is at least as good on every
 * microarchitecture.
 */
#include <array>
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Ablation (paper 5.2): Ithemal decoder network", scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 211);

  std::printf("training Ithemal (dot-product decoder)...\n");
  train::ModelRunner dot(
      IthemalBenchConfig(scale, ithemal::DecoderKind::kDotProduct, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.lstm_steps));
  dot.Train(data.train, data.validation);

  std::printf("training Ithemal+ (MLP decoder)...\n");
  train::ModelRunner mlp(
      IthemalBenchConfig(scale, ithemal::DecoderKind::kMlp, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.lstm_steps));
  mlp.Train(data.train, data.validation);

  const std::vector<int> widths = {14, 18, 14, 14};
  std::printf("\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "Dot-product MAPE", "MLP MAPE", "Improvement"},
           widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const double dot_mape = dot.Evaluate(data.test, task).mape;
    const double mlp_mape = mlp.Evaluate(data.test, task).mape;
    PrintRow({std::string(MicroarchitectureName(microarchitecture)),
              Percent(dot_mape), Percent(mlp_mape),
              Percent(dot_mape - mlp_mape)},
             widths);
  }
  PrintSeparator(widths);
  std::printf("paper: improvements of 0.25%% / 0.39%% / 1.10%% "
              "(single-task regime)\n");
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
