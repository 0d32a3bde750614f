/**
 * @file
 * Reproduces Figure 4: the distribution of relative prediction errors
 * (predicted - actual) / actual for Ithemal and multi-task GRANITE on
 * the Ithemal-style dataset, over [-1.5, 1.5].
 *
 * Renders ASCII histograms and exports fig4_<model>_<uarch>.csv.
 * Expected shape: GRANITE's distribution is centered at zero; Ithemal's
 * is skewed toward underestimation (mass at negative relative error).
 */
#include <cstdio>

#include "bench_common.h"
#include "train/metrics.h"

namespace granite::bench {
namespace {

void EmitHistogram(const std::string& model_name,
                   const std::vector<double>& actual,
                   const std::vector<double>& predicted,
                   uarch::Microarchitecture microarchitecture) {
  const std::string uarch_name(MicroarchitectureName(microarchitecture));
  const train::ErrorHistogram histogram =
      train::BuildErrorHistogram(actual, predicted, /*bins=*/60);
  std::printf("\n%s - %s:\n%s", uarch_name.c_str(), model_name.c_str(),
              train::RenderErrorHistogram(histogram).c_str());
  // Underestimation share: mass strictly left of the center bin.
  int left = 0;
  int right = 0;
  for (int bin = 0; bin < histogram.bins; ++bin) {
    if (bin < histogram.bins / 2) {
      left += histogram.counts[bin];
    } else {
      right += histogram.counts[bin];
    }
  }
  std::printf("underestimated: %d blocks, overestimated-or-exact: %d "
              "blocks\n",
              left, right);
  std::string file_name = "fig4_" + model_name + "_" + uarch_name + ".csv";
  for (char& c : file_name) {
    if (c == ' ') c = '_';
  }
  train::WriteErrorHistogramCsv(histogram, file_name);
  std::printf("wrote %s\n", file_name.c_str());
}

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 4: relative-error distributions", scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 401);

  train::ModelRunner granite(GraniteBenchConfig(scale, 3, data.train),
                              MultiTaskTrainerConfig(scale,
                                                     scale.granite_steps));
  train::ModelRunner ithemal(
      IthemalBenchConfig(scale, ithemal::DecoderKind::kDotProduct, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.lstm_steps));

  std::printf("training GRANITE...\n");
  granite.Train(data.train, data.validation);
  std::printf("training Ithemal...\n");
  ithemal.Train(data.train, data.validation);

  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const std::vector<double> actual =
        data.test.Throughputs(microarchitecture);
    EmitHistogram("Ithemal", actual, ithemal.Predict(data.test, task),
                  microarchitecture);
    EmitHistogram("GRANITE", actual, granite.Predict(data.test, task),
                  microarchitecture);
  }
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
