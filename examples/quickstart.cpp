/**
 * @file
 * Quickstart: parse a basic block, inspect its GRANITE graph encoding,
 * train a small model on synthetic data, and predict the block's
 * throughput on all three microarchitectures.
 *
 * The example block is Table 1 of the paper (a block from the BHive
 * dataset).
 *
 * Run time: around a minute on a laptop-class CPU.
 */
#include <cstdio>

#include "asm/parser.h"
#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "dataset/dataset.h"
#include "graph/graph_builder.h"
#include "train/runners.h"
#include "uarch/measurement.h"

namespace {

constexpr const char* kPaperTable1Block = R"(
CMP R15D, 1
SBB EAX, EAX
AND EAX, 0x8
TEST ECX, ECX
MOV DWORD PTR [RBP - 3], EAX
MOV EAX, 1
CMOVG EAX, ECX
CMP EDX, EAX
)";

}  // namespace

int main() {
  using namespace granite;

  // ---- 1. Parse a basic block -------------------------------------------
  const auto parsed = assembly::ParseBasicBlock(kPaperTable1Block);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 1;
  }
  const assembly::BasicBlock& block = *parsed.value;
  std::printf("Input basic block (paper Table 1, %zu instructions):\n%s\n\n",
              block.size(), block.ToString().c_str());

  // ---- 2. Inspect its graph encoding -------------------------------------
  const graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  const graph::GraphBuilder builder(&vocabulary);
  const graph::BlockGraph block_graph = builder.Build(block);
  std::printf("GRANITE graph: %d nodes, %d edges\n", block_graph.num_nodes(),
              block_graph.num_edges());
  std::printf("  mnemonic nodes: %d, register values: %d, memory values: "
              "%d, address computations: %d\n\n",
              block_graph.CountNodes(graph::NodeType::kMnemonic),
              block_graph.CountNodes(graph::NodeType::kRegister),
              block_graph.CountNodes(graph::NodeType::kMemoryValue),
              block_graph.CountNodes(graph::NodeType::kAddressComputation));

  // ---- 3. Synthesize training data and train a small model ---------------
  std::printf("Synthesizing a 600-block dataset and training a small "
              "multi-task GRANITE model...\n");
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 600;
  synthesis.seed = 7;
  const dataset::Dataset dataset = dataset::SynthesizeDataset(synthesis);
  const dataset::IndexSplit split =
      dataset::SplitIndices(dataset.size(), 0.83, 1);
  const dataset::SubsetBlockSource train(&dataset, split.first);
  const dataset::SubsetBlockSource test(&dataset, split.second);

  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(24);
  model_config.message_passing_iterations = 4;
  model_config.num_tasks = 3;
  model_config.decoder_output_bias_init = 1.0f;

  train::TrainerConfig trainer_config;
  trainer_config.num_steps = 1200;
  trainer_config.batch_size = 32;
  trainer_config.adam.learning_rate = 0.02f;
  trainer_config.final_learning_rate = 0.001f;
  trainer_config.target_scale = 100.0;
  trainer_config.tasks = {uarch::Microarchitecture::kIvyBridge,
                          uarch::Microarchitecture::kHaswell,
                          uarch::Microarchitecture::kSkylake};
  train::ModelRunner runner(model_config, trainer_config);
  runner.Train(train, dataset::Dataset());

  // ---- 4. Evaluate and predict -------------------------------------------
  std::printf("\nHeld-out accuracy (MAPE):");
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const auto result =
        runner.Evaluate(test, static_cast<int>(microarchitecture));
    std::printf("  %s: %.1f%%",
                std::string(MicroarchitectureName(microarchitecture)).c_str(),
                result.mape * 100.0);
  }
  std::printf("\n\nPredicted vs simulated throughput of the Table 1 block "
              "(cycles per 100 iterations):\n");
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    const double predicted =
        runner.model().Predict({&block}, task)[0] * 100.0;
    const double simulated = uarch::MeasureThroughput(
        block, microarchitecture, uarch::MeasurementTool::kIthemalTool);
    std::printf("  %-11s predicted %7.1f   measured %7.1f\n",
                std::string(MicroarchitectureName(microarchitecture)).c_str(),
                predicted, simulated);
  }
  std::printf("\nDone. See examples/graph_explorer.cpp for graph dumps and\n"
              "examples/compiler_autotuner.cpp for a code-optimization "
              "use case.\n");
  return 0;
}
