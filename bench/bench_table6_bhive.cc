/**
 * @file
 * Reproduces Table 6: GRANITE vs Ithemal+ trained and tested on the
 * BHive(-style) dataset (5x smaller than the Ithemal dataset). Vanilla
 * Ithemal is excluded, matching the paper, which reports consistent
 * numerical instability when training it on BHive.
 *
 * Expected shape: GRANITE has lower MAPE and substantially better
 * Pearson correlation on all three microarchitectures.
 */
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Table 6: GRANITE vs Ithemal+ on the BHive-style dataset",
              scale);

  const SplitDataset data = MakeDataset(uarch::MeasurementTool::kBHiveTool,
                                        scale.bhive_blocks, 601);
  std::printf("train %zu / validation %zu / test %zu blocks\n\n",
              data.train.size(), data.validation.size(), data.test.size());

  train::ModelRunner granite(GraniteBenchConfig(scale, 3, data.train),
                              MultiTaskTrainerConfig(scale,
                                                     scale.granite_steps));
  train::ModelRunner ithemal_plus(
      IthemalBenchConfig(scale, ithemal::DecoderKind::kMlp, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.lstm_steps));

  std::printf("training GRANITE...\n");
  granite.Train(data.train, data.validation);
  std::printf("training Ithemal+...\n");
  ithemal_plus.Train(data.train, data.validation);

  const std::vector<int> widths = {14, 10, 10, 10, 10};
  std::printf("\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "Model", "MAPE", "Spearman", "Pearson"}, widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const auto plus_result = ithemal_plus.Evaluate(data.test, task);
    const auto granite_result = granite.Evaluate(data.test, task);
    const std::string name(MicroarchitectureName(microarchitecture));
    PrintRow({name, "Ithemal+", Percent(plus_result.mape),
              Fixed(plus_result.spearman), Fixed(plus_result.pearson)},
             widths);
    PrintRow({"", "GRANITE", Percent(granite_result.mape),
              Fixed(granite_result.spearman), Fixed(granite_result.pearson)},
             widths);
    PrintSeparator(widths);
  }
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
