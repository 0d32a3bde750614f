/**
 * @file
 * Reproduces Figure 5: prediction heatmaps for GRANITE trained and
 * tested on the BHive-style dataset (which is 5x smaller than the
 * Ithemal-style one, hence visibly sparser heatmaps).
 *
 * Renders ASCII heatmaps and exports fig5_GRANITE_<uarch>.csv.
 */
#include <cstdio>

#include "bench_common.h"
#include "train/metrics.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Figure 5: GRANITE heatmaps on the BHive-style dataset",
              scale);

  const SplitDataset data = MakeDataset(uarch::MeasurementTool::kBHiveTool,
                                        scale.bhive_blocks, 302);

  train::ModelRunner granite(GraniteBenchConfig(scale, 3, data.train),
                              MultiTaskTrainerConfig(scale,
                                                     scale.granite_steps));
  std::printf("training GRANITE on the BHive-style dataset...\n");
  granite.Train(data.train, data.validation);

  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const std::vector<double> actual =
        data.test.Throughputs(microarchitecture);
    const std::vector<double> predicted = granite.Predict(data.test, task);
    const train::Heatmap heatmap = train::BuildHeatmap(
        actual, predicted, /*bins=*/40, /*min_value=*/0.0,
        /*max_value=*/10.0, /*scale=*/100.0);
    const std::string uarch_name(
        MicroarchitectureName(microarchitecture));
    std::printf("\n%s - GRANITE:\n%s", uarch_name.c_str(),
                train::RenderHeatmap(heatmap).c_str());
    std::string file_name = "fig5_GRANITE_" + uarch_name + ".csv";
    for (char& c : file_name) {
      if (c == ' ') c = '_';
    }
    train::WriteHeatmapCsv(heatmap, file_name);
    std::printf("wrote %s\n", file_name.c_str());
  }
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
