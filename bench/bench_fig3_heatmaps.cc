/**
 * @file
 * Reproduces Figure 3: ground-truth (x) vs prediction (y) density
 * heatmaps for Ithemal and multi-task GRANITE on the Ithemal-style
 * dataset, for throughputs under 10 cycles per iteration.
 *
 * Renders ASCII heatmaps and exports fig3_<model>_<uarch>.csv next to
 * the binary for external plotting. Expected shape: GRANITE's density
 * concentrates on the y = x diagonal; vanilla Ithemal underestimates
 * (density below the diagonal).
 */
#include <cstdio>

#include "bench_common.h"
#include "train/metrics.h"

namespace granite::bench {
namespace {

void EmitHeatmaps(const std::string& model_name,
                  const std::vector<double>& actual,
                  const std::vector<double>& predicted,
                  uarch::Microarchitecture microarchitecture) {
  const std::string uarch_name(MicroarchitectureName(microarchitecture));
  // The paper plots single-iteration cycles in [0, 10); labels are per
  // 100 iterations, hence scale = 100.
  const train::Heatmap heatmap = train::BuildHeatmap(
      actual, predicted, /*bins=*/40, /*min_value=*/0.0, /*max_value=*/10.0,
      /*scale=*/100.0);
  std::printf("\n%s - %s:\n%s", uarch_name.c_str(), model_name.c_str(),
              train::RenderHeatmap(heatmap).c_str());
  std::string file_name = "fig3_" + model_name + "_" + uarch_name + ".csv";
  for (char& c : file_name) {
    if (c == ' ') c = '_';
  }
  train::WriteHeatmapCsv(heatmap, file_name);
  std::printf("wrote %s\n", file_name.c_str());
}

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 3: prediction heatmaps on the Ithemal-style dataset",
              scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 301);

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
    EmitHeatmaps("Ithemal", actual, ithemal.Predict(data.test, task),
                 microarchitecture);
    EmitHeatmaps("GRANITE", actual, granite.Predict(data.test, task),
                 microarchitecture);
  }
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
