/**
 * @file
 * Compiler auto-tuning scenario (the paper's §1 motivation: performance
 * estimators guide optimization passes because hardware measurements are
 * too slow).
 *
 * Earlier revisions ranked hand-written spelling variants; this version
 * drives the real subsystem (src/autotune): naive spellings of three
 * code-generation idioms — multiply-by-5, register zeroing, and a
 * memory-increment — are handed to autotune::BlockOptimizer, whose beam
 * search rewrites them with the semantics-preserving transform catalog
 * and scores candidates with (a) the analytical port model and (b) a
 * freshly trained GRANITE model served through an InferenceServer. The
 * report shows what each cost model's search chose and whether the
 * learned model's pick survives the oracle's judgment. This is exactly
 * how a cost model is consumed by a peephole/selection pass, with the
 * search loop included.
 *
 * Run time: around a minute (includes training a small model).
 */
#include <cstdio>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "autotune/search.h"
#include "autotune/transforms.h"
#include "dataset/dataset.h"
#include "serve/inference_server.h"
#include "train/runners.h"
#include "uarch/throughput_model.h"

namespace {

struct Scenario {
  std::string name;
  /** Deliberately naive spelling a -O0-ish code generator might emit. */
  std::string naive;
};

const std::vector<Scenario>& Scenarios() {
  static const std::vector<Scenario>* const scenarios =
      new std::vector<Scenario>{
          {"multiply RAX by 5, then consume",
           "IMUL RAX, RAX, 5\nADD RAX, RBX"},
          {"zero EAX between independent adds",
           "MOV EAX, 0\nADD RCX, RDX\nADD RSI, RDI"},
          {"increment a counter in memory",
           "MOV RAX, QWORD PTR [RDI]\nADD RAX, 1\n"
           "MOV QWORD PTR [RDI], RAX"},
      };
  return *scenarios;
}

std::string OneLine(const granite::assembly::BasicBlock& block) {
  std::string joined;
  for (const auto& instruction : block.instructions) {
    if (!joined.empty()) joined += "; ";
    joined += instruction.ToString();
  }
  return joined;
}

void PrintResult(const char* backend,
                 const granite::autotune::OptimizeResult& result,
                 const granite::uarch::ThroughputModel& oracle) {
  std::printf("  %-10s:", backend);
  if (!result.scored) {
    std::printf(" scoring failed\n");
    return;
  }
  if (!result.improved) {
    std::printf(" kept the original (%.2f cycles)\n", result.original_cost);
    return;
  }
  std::string rules;
  for (const std::string& rule : result.applied) {
    if (!rules.empty()) rules += ", ";
    rules += rule;
  }
  std::printf(" %.2f -> %.2f (x%.2f) via [%s]; oracle says %.2f cycles\n",
              result.original_cost, result.best_cost,
              result.predicted_speedup, rules.c_str(),
              oracle.CyclesPerIteration(result.best));
}

}  // namespace

int main() {
  using namespace granite;

  // Train a small single-task model to act as the learned cost model.
  std::printf("training a small GRANITE cost model on synthetic data...\n");
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 800;
  synthesis.seed = 77;
  const dataset::Dataset dataset = dataset::SynthesizeDataset(synthesis);

  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(24);
  model_config.message_passing_iterations = 4;
  model_config.num_tasks = 1;
  model_config.decoder_output_bias_init = 1.0f;
  train::TrainerConfig trainer_config;
  trainer_config.num_steps = 1500;
  trainer_config.batch_size = 32;
  trainer_config.adam.learning_rate = 0.02f;
  trainer_config.final_learning_rate = 0.001f;
  trainer_config.target_scale = 100.0;
  trainer_config.tasks = {uarch::Microarchitecture::kHaswell};
  trainer_config.validation_every = 0;
  train::ModelRunner runner(model_config, trainer_config);
  runner.Train(dataset, dataset::Dataset());

  // Serve the trained model the way a build farm would: a batching
  // server with a prediction cache, scored via the autotuner's
  // scatter-gather client.
  serve::InferenceServerConfig server_config;
  server_config.num_workers = 2;
  server_config.max_batch_size = 16;
  server_config.prediction_cache_capacity = 4096;
  serve::InferenceServer server(&runner.model(), server_config);

  const uarch::ThroughputModel oracle(uarch::Microarchitecture::kHaswell);
  autotune::SearchConfig search_config;
  search_config.beam_width = 4;
  search_config.max_depth = 5;
  autotune::AnalyticalCostClient oracle_client(
      uarch::Microarchitecture::kHaswell);
  autotune::ServerCostClient model_client(&server, /*task=*/0);
  autotune::BlockOptimizer oracle_tuner(&oracle_client, search_config);
  autotune::BlockOptimizer model_tuner(&model_client, search_config);

  int agreements = 0;
  int total = 0;
  for (const Scenario& scenario : Scenarios()) {
    const auto block = assembly::ParseBasicBlock(scenario.naive);
    if (!block.ok()) {
      std::fprintf(stderr, "parse error: %s\n", block.error.c_str());
      return 1;
    }
    std::printf("\n=== %s ===\n", scenario.name.c_str());
    std::printf("  naive     : %s\n", OneLine(*block.value).c_str());

    const autotune::OptimizeResult by_oracle =
        oracle_tuner.Optimize(*block.value);
    const autotune::OptimizeResult by_model =
        model_tuner.Optimize(*block.value);
    PrintResult("oracle", by_oracle, oracle);
    PrintResult("model", by_model, oracle);

    // The learned model's pick is judged by the oracle: did searching
    // with the approximation land within rounding of searching with the
    // ground truth?
    ++total;
    const double oracle_best = oracle.CyclesPerIteration(by_oracle.best);
    const double model_best = oracle.CyclesPerIteration(by_model.best);
    const bool agree = model_best <= oracle_best + 1e-9;
    if (agree) ++agreements;
    std::printf("  -> model-guided search %s the oracle-guided result\n",
                agree ? "matches" : "falls short of");
  }

  const serve::ServerStats stats = server.Stats();
  std::printf("\nmodel-guided search matched the oracle on %d of %d "
              "scenarios; server answered %llu requests "
              "(cache hit rate %.1f%%)\n",
              agreements, total,
              static_cast<unsigned long long>(stats.completed),
              100.0 * stats.cache_hit_rate);
  return 0;
}
