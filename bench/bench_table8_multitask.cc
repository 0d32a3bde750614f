/**
 * @file
 * Reproduces Table 8: the effect of multi-task training on GRANITE,
 * Ithemal and Ithemal+ across the three microarchitectures.
 *
 * Each model is trained once per microarchitecture in the single-task
 * regime and once with three task heads in the multi-task regime.
 * Expected shape: multi-task training helps the MLP-decoder models
 * (GRANITE, Ithemal+) on most microarchitectures; vanilla Ithemal, whose
 * task-specific part is a single dot product, benefits least (the paper
 * reports it often gets worse).
 */
#include <cstdio>

#include "bench_common.h"

namespace granite::bench {
namespace {

struct ModelRows {
  std::string name;
  std::array<double, 3> single_task;
  std::array<double, 3> multi_task;
};

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  PrintBanner("Table 8: single-task vs multi-task training", scale);

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kIthemalTool, scale.ithemal_blocks, 801);
  // Table 8 trains 12 models (3 single-task + 1 multi-task per family),
  // so each run gets a third of the Table 5 budget.
  const int granite_steps = scale.granite_steps / 3;
  const int lstm_steps = scale.lstm_steps / 3;

  std::vector<ModelRows> rows;

  // ---- GRANITE -----------------------------------------------------------
  {
    ModelRows granite_rows;
    granite_rows.name = "GRANITE";
    for (const uarch::Microarchitecture microarchitecture :
         uarch::AllMicroarchitectures()) {
      std::printf("training single-task GRANITE on %s...\n",
                  std::string(MicroarchitectureName(microarchitecture))
                      .c_str());
      train::ModelRunner runner(
          GraniteBenchConfig(scale, 1, data.train),
          SingleTaskTrainerConfig(scale, granite_steps, microarchitecture));
      runner.Train(data.train, data.validation);
      granite_rows.single_task[static_cast<int>(microarchitecture)] =
          runner.Evaluate(data.test, 0).mape;
    }
    std::printf("training multi-task GRANITE...\n");
    train::ModelRunner runner(
        GraniteBenchConfig(scale, 3, data.train),
        MultiTaskTrainerConfig(scale, granite_steps));
    runner.Train(data.train, data.validation);
    for (int task = 0; task < 3; ++task) {
      granite_rows.multi_task[task] = runner.Evaluate(data.test, task).mape;
    }
    rows.push_back(granite_rows);
  }

  // ---- Ithemal and Ithemal+ ----------------------------------------------
  for (const auto& [name, decoder] :
       {std::pair<std::string, ithemal::DecoderKind>{
            "Ithemal", ithemal::DecoderKind::kDotProduct},
        std::pair<std::string, ithemal::DecoderKind>{
            "Ithemal+", ithemal::DecoderKind::kMlp}}) {
    ModelRows lstm_rows;
    lstm_rows.name = name;
    for (const uarch::Microarchitecture microarchitecture :
         uarch::AllMicroarchitectures()) {
      std::printf("training single-task %s on %s...\n", name.c_str(),
                  std::string(MicroarchitectureName(microarchitecture))
                      .c_str());
      train::ModelRunner runner(
          IthemalBenchConfig(scale, decoder, 1, data.train),
          SingleTaskTrainerConfig(scale, lstm_steps, microarchitecture));
      runner.Train(data.train, data.validation);
      lstm_rows.single_task[static_cast<int>(microarchitecture)] =
          runner.Evaluate(data.test, 0).mape;
    }
    std::printf("training multi-task %s...\n", name.c_str());
    train::ModelRunner runner(IthemalBenchConfig(scale, decoder, 3, data.train),
                               MultiTaskTrainerConfig(scale, lstm_steps));
    runner.Train(data.train, data.validation);
    for (int task = 0; task < 3; ++task) {
      lstm_rows.multi_task[task] = runner.Evaluate(data.test, task).mape;
    }
    rows.push_back(lstm_rows);
  }

  const std::vector<int> widths = {14, 10, 20, 20};
  std::printf("\n");
  PrintSeparator(widths);
  PrintRow({"uarch", "Model", "MAPE (Single-Task)", "MAPE (Multi-Task)"},
           widths);
  PrintSeparator(widths);
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    bool first = true;
    for (const ModelRows& model : rows) {
      PrintRow({first ? std::string(
                            MicroarchitectureName(microarchitecture))
                      : std::string(),
                model.name, Percent(model.single_task[task]),
                Percent(model.multi_task[task])},
               widths);
      first = false;
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
