/**
 * @file
 * Reproduces Table 5: GRANITE vs Ithemal vs Ithemal+ trained and tested
 * on the Ithemal(-style) dataset. Reports MAPE, Spearman and Pearson per
 * microarchitecture, plus the cross-dataset rows (testing the same
 * models on BHive-style labels), which the paper discusses in §5.1.
 *
 * Expected shape (paper values in EXPERIMENTS.md): GRANITE achieves the
 * lowest MAPE on every microarchitecture; Ithemal+ beats vanilla
 * Ithemal; Pearson correlation of vanilla Ithemal (dot-product decoder)
 * is far below the MLP-decoder models.
 */
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Table 5: baseline comparison on the Ithemal-style dataset",
              scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 501);
  // Cross-dataset evaluation: the same test blocks relabeled with the
  // BHive measurement methodology.
  const dataset::Dataset bhive_test = dataset::RelabelDataset(
      data.test, uarch::MeasurementTool::kBHiveTool);

  std::printf("train %zu / validation %zu / test %zu blocks\n\n",
              data.train.size(), data.validation.size(), data.test.size());

  // All models are trained multi-task over the three microarchitectures
  // (the paper's best configurations per Table 8).
  train::ModelRunner granite(GraniteBenchConfig(scale, 3, data.train),
                              MultiTaskTrainerConfig(scale,
                                                     scale.granite_steps));
  train::ModelRunner ithemal(
      IthemalBenchConfig(scale, ithemal::DecoderKind::kDotProduct, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.lstm_steps));
  train::ModelRunner ithemal_plus(
      IthemalBenchConfig(scale, ithemal::DecoderKind::kMlp, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.lstm_steps));

  std::printf("training GRANITE...\n");
  granite.Train(data.train, data.validation);
  std::printf("training Ithemal...\n");
  ithemal.Train(data.train, data.validation);
  std::printf("training Ithemal+...\n");
  ithemal_plus.Train(data.train, data.validation);

  const std::vector<int> widths = {14, 10, 10, 10, 10};
  std::printf("\nTested on the Ithemal-style test split:\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "Model", "MAPE", "Spearman", "Pearson"}, widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const auto granite_result = granite.Evaluate(data.test, task);
    const auto ithemal_result = ithemal.Evaluate(data.test, task);
    const auto plus_result = ithemal_plus.Evaluate(data.test, task);
    const std::string name(MicroarchitectureName(microarchitecture));
    PrintRow({name, "Ithemal", Percent(ithemal_result.mape),
              Fixed(ithemal_result.spearman), Fixed(ithemal_result.pearson)},
             widths);
    PrintRow({"", "Ithemal+", Percent(plus_result.mape),
              Fixed(plus_result.spearman), Fixed(plus_result.pearson)},
             widths);
    PrintRow({"", "GRANITE", Percent(granite_result.mape),
              Fixed(granite_result.spearman), Fixed(granite_result.pearson)},
             widths);
    PrintSeparator(widths);
  }

  std::printf("\nSame models tested on BHive-style labels "
              "(cross-methodology, paper §5.1):\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "Model", "MAPE", "Spearman", "Pearson"}, widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const auto granite_result = granite.Evaluate(bhive_test, task);
    const auto ithemal_result = ithemal.Evaluate(bhive_test, task);
    const auto plus_result = ithemal_plus.Evaluate(bhive_test, task);
    const std::string name(MicroarchitectureName(microarchitecture));
    PrintRow({name, "Ithemal", Percent(ithemal_result.mape),
              Fixed(ithemal_result.spearman), Fixed(ithemal_result.pearson)},
             widths);
    PrintRow({"", "Ithemal+", Percent(plus_result.mape),
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
