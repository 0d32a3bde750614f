/**
 * @file
 * Reproduces the §5.2 layer-normalization ablation: removing layer norm
 * from the node/edge/global update networks and the decoder.
 *
 * The paper reports that without layer norm the test error increases by
 * 12-15 percentage points and training becomes numerically unstable,
 * requiring gradient clipping. We mirror that setup: the no-layer-norm
 * run trains with gradient clipping enabled, exactly as the paper had
 * to.
 *
 * Expected shape: the no-layer-norm model is substantially worse on all
 * microarchitectures.
 */
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Ablation (paper 5.2): layer normalization", scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 212);

  std::printf("training GRANITE with layer normalization...\n");
  train::ModelRunner with_norm(
      GraniteBenchConfig(scale, 3, data.train),
      MultiTaskTrainerConfig(scale, scale.granite_steps));
  with_norm.Train(data.train, data.validation);

  std::printf("training GRANITE without layer normalization "
              "(gradient clipping enabled)...\n");
  core::GraniteConfig no_norm_config = GraniteBenchConfig(scale, 3, data.train);
  no_norm_config.use_layer_norm = false;
  train::TrainerConfig no_norm_trainer =
      MultiTaskTrainerConfig(scale, scale.granite_steps);
  no_norm_trainer.adam.gradient_clip_norm = 1.0f;
  train::ModelRunner without_norm(no_norm_config, no_norm_trainer);
  without_norm.Train(data.train, data.validation);

  const std::vector<int> widths = {14, 16, 16, 12};
  std::printf("\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "With LayerNorm", "Without", "Degradation"}, widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const double with = with_norm.Evaluate(data.test, task).mape;
    const double without = without_norm.Evaluate(data.test, task).mape;
    PrintRow({std::string(MicroarchitectureName(microarchitecture)),
              Percent(with), Percent(without), Percent(without - with)},
             widths);
  }
  PrintSeparator(widths);
  std::printf("paper: degradations of 15.19%% / 12.87%% / 12.27%%\n");
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
