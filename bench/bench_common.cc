#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

namespace granite::bench {
namespace {

/** Metric registry state; benches are single-threaded at record time. */
std::string& MetricsJsonPath() {
  static std::string path;
  return path;
}

std::map<std::string, double>& Metrics() {
  static std::map<std::string, double> metrics;
  return metrics;
}

}  // namespace

void SetMetricsJsonPath(const std::string& path) {
  MetricsJsonPath() = path;
}

void RecordMetric(const std::string& name, double value) {
  Metrics()[name] = value;
}

bool WriteMetricsJson() {
  if (MetricsJsonPath().empty()) return false;
  // Stamp the recording host's core count into every metrics file:
  // compare_bench.py uses it to skip parallel-scaling advisories when
  // the run machine cannot actually run anything in parallel. host.*
  // metrics describe the machine, not the build, and are excluded from
  // band comparison.
  RecordMetric("host.hardware_concurrency",
               static_cast<double>(
                   std::max(1u, std::thread::hardware_concurrency())));
  std::FILE* file = std::fopen(MetricsJsonPath().c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write metrics JSON: %s\n",
                 MetricsJsonPath().c_str());
    return false;
  }
  std::fprintf(file, "{\n");
  std::size_t remaining = Metrics().size();
  for (const auto& [name, value] : Metrics()) {
    std::fprintf(file, "  \"%s\": %.17g%s\n", name.c_str(), value,
                 --remaining == 0 ? "" : ",");
  }
  std::fprintf(file, "}\n");
  std::fclose(file);
  std::printf("metrics JSON written: %s (%zu metrics)\n",
              MetricsJsonPath().c_str(), Metrics().size());
  return true;
}

Scale ParseScale(int argc, char** argv,
                 const std::vector<std::string>& extra_flags) {
  Scale scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      scale.quick = true;
    } else if (arg.rfind("--json-out=", 0) == 0) {
      SetMetricsJsonPath(arg.substr(11));
    } else if (std::none_of(extra_flags.begin(), extra_flags.end(),
                            [&arg](const std::string& prefix) {
                              return arg.rfind(prefix, 0) == 0;
                            })) {
      // A mistyped flag must not silently run the full-size config.
      std::fprintf(stderr, "%s: unknown flag '%s'\naccepted flags: --quick "
                   "--json-out=PATH", argv[0], arg.c_str());
      for (const std::string& prefix : extra_flags) {
        std::fprintf(stderr, " %sPATH", prefix.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
  if (scale.quick) {
    scale.ithemal_blocks /= 5;
    scale.bhive_blocks /= 5;
    scale.granite_steps /= 5;
    scale.lstm_steps /= 5;
  }
  return scale;
}

void PrintBanner(const std::string& title, const Scale& scale) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Scaled reproduction: embedding %d (paper: 256), "
              "%d/%d training steps (paper: >=6M),\n"
              "%zu-block synthetic Ithemal-style dataset (paper: 1.4M "
              "measured blocks).\n",
              scale.embedding_size, scale.granite_steps, scale.lstm_steps,
              scale.ithemal_blocks);
  std::printf("Absolute errors differ from the paper; compare shapes "
              "(see EXPERIMENTS.md).\n");
  std::printf("==================================================================\n");
}

SplitDataset::SplitDataset(dataset::Dataset synthesized)
    : all(std::move(synthesized)),
      train_part(&all, dataset::SplitIndices(all.size(), 0.83, 1001).first),
      train(&train_part,
            dataset::SplitIndices(train_part.size(), 0.98, 1002).first),
      validation(&train_part,
                 dataset::SplitIndices(train_part.size(), 0.98, 1002).second),
      test(&all, dataset::SplitIndices(all.size(), 0.83, 1001).second) {}

SplitDataset MakeDataset(uarch::MeasurementTool tool, std::size_t blocks,
                         uint64_t seed) {
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = blocks;
  synthesis.tool = tool;
  synthesis.seed = seed;
  // Weight the generator toward dependency-sensitive families: these are
  // the blocks where the graph representation carries signal beyond the
  // instruction mix, i.e. where the experiments of the paper
  // differentiate the models.
  synthesis.generator.family_weights = {2.0, 1.0, 1.0, 1.5, 1.0, 1.5};
  // Identical split settings across all experiments isolate the impact
  // of dataset distribution (paper §4).
  return SplitDataset(dataset::SynthesizeDataset(synthesis));
}

train::TrainerConfig MultiTaskTrainerConfig(const Scale& scale, int steps) {
  train::TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = scale.batch_size;
  config.adam.learning_rate = scale.learning_rate;
  config.final_learning_rate = scale.final_learning_rate;
  config.target_scale = 100.0;
  config.tasks = {uarch::Microarchitecture::kIvyBridge,
                  uarch::Microarchitecture::kHaswell,
                  uarch::Microarchitecture::kSkylake};
  config.validation_every = std::max(1, steps / 8);
  config.seed = 4321;
  return config;
}

train::TrainerConfig SingleTaskTrainerConfig(const Scale& scale, int steps,
                                             uarch::Microarchitecture task) {
  train::TrainerConfig config = MultiTaskTrainerConfig(scale, steps);
  config.tasks = {task};
  return config;
}

double MeanScaledThroughput(const dataset::BlockSource& data) {
  if (data.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (const double throughput : *data.Get(i).throughput) {
      total += throughput;
    }
  }
  return total /
         (static_cast<double>(data.size()) * uarch::kNumMicroarchitectures) /
         100.0;
}

double MeanInstructions(const dataset::BlockSource& data) {
  if (data.empty()) return 1.0;
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    total += static_cast<double>(data.Get(i).block->size());
  }
  return total / static_cast<double>(data.size());
}

core::GraniteConfig GraniteBenchConfig(const Scale& scale, int num_tasks,
                                       const dataset::BlockSource& reference) {
  core::GraniteConfig config =
      core::GraniteConfig().WithEmbeddingSize(scale.embedding_size);
  config.message_passing_iterations = scale.message_passing_iterations;
  config.num_tasks = num_tasks;
  // GRANITE sums per-instruction contributions, so the per-instruction
  // bias is the per-block mean divided by the mean block length.
  config.decoder_output_bias_init = static_cast<float>(
      MeanScaledThroughput(reference) /
      std::max(1.0, MeanInstructions(reference)));
  return config;
}

ithemal::IthemalConfig IthemalBenchConfig(
    const Scale& scale, ithemal::DecoderKind decoder, int num_tasks,
    const dataset::BlockSource& reference) {
  ithemal::IthemalConfig config =
      ithemal::IthemalConfig().WithEmbeddingSize(scale.embedding_size);
  config.decoder = decoder;
  config.num_tasks = num_tasks;
  // The Ithemal+ decoder predicts the whole block at once.
  config.decoder_output_bias_init =
      static_cast<float>(MeanScaledThroughput(reference));
  return config;
}

std::string Percent(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f%%", fraction * 100.0);
  return buffer;
}

std::string Fixed(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  std::printf("|");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    std::printf(" %-*s |", width, cells[i].c_str());
  }
  std::printf("\n");
}

void PrintSeparator(const std::vector<int>& widths) {
  std::printf("+");
  for (const int width : widths) {
    for (int i = 0; i < width + 2; ++i) std::printf("-");
    std::printf("+");
  }
  std::printf("\n");
}

}  // namespace granite::bench
