/**
 * @file
 * Graph explorer: parses a basic block (from a file or stdin, or a
 * built-in demo block), prints its GRANITE graph encoding as Graphviz
 * DOT, reports the analytical throughput breakdown (front-end, port
 * pressure and dependency bounds) on every microarchitecture, and
 * splits a small trained GRANITE model's prediction into per-instruction
 * contributions (the paper's §3.3 decoding: the block prediction is the
 * sum of what the decoder assigns to each instruction).
 *
 * Usage:
 *   graph_explorer                # uses the built-in demo block
 *   graph_explorer block.s        # reads Intel-syntax assembly, one
 *                                 # instruction per line
 *   echo "ADD RAX, RBX" | graph_explorer -
 *
 * Run time: a few seconds (includes training the small model).
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "core/granite_model.h"
#include "dataset/dataset.h"
#include "graph/graph_builder.h"
#include "train/runners.h"
#include "uarch/throughput_model.h"

namespace {

// The paper's Figure 1 block.
constexpr const char* kDemoBlock =
    "MOV RAX, 12345\n"
    "ADD DWORD PTR [RAX + 16], EBX\n";

std::string ReadInput(int argc, char** argv) {
  if (argc < 2) return kDemoBlock;
  const std::string source = argv[1];
  if (source == "-") {
    std::ostringstream out;
    out << std::cin.rdbuf();
    return out.str();
  }
  std::ifstream file(source);
  if (!file.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", source.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace granite;

  const std::string text = ReadInput(argc, argv);
  const auto parsed = assembly::ParseBasicBlock(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 1;
  }
  const assembly::BasicBlock& block = *parsed.value;
  if (block.empty()) {
    std::fprintf(stderr, "empty basic block\n");
    return 1;
  }

  std::printf("# Basic block (%zu instructions)\n%s\n\n", block.size(),
              block.ToString().c_str());

  const graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  const graph::GraphBuilder builder(&vocabulary);
  const graph::BlockGraph block_graph = builder.Build(block);

  std::printf("# Node inventory\n");
  for (int type = 0; type < graph::kNumNodeTypes; ++type) {
    const auto node_type = static_cast<graph::NodeType>(type);
    const int count = block_graph.CountNodes(node_type);
    if (count > 0) {
      std::printf("  %-12s %d\n",
                  std::string(graph::NodeTypeName(node_type)).c_str(),
                  count);
    }
  }
  std::printf("# Edge inventory\n");
  for (int type = 0; type < graph::kNumEdgeTypes; ++type) {
    const auto edge_type = static_cast<graph::EdgeType>(type);
    const int count = block_graph.CountEdges(edge_type);
    if (count > 0) {
      std::printf("  %-22s %d\n",
                  std::string(graph::EdgeTypeName(edge_type)).c_str(),
                  count);
    }
  }

  std::printf("\n# Graphviz DOT (pipe into `dot -Tpng`)\n%s\n",
              block_graph.ToDot(vocabulary.tokens()).c_str());

  std::printf("# Analytical throughput breakdown (cycles per iteration)\n");
  std::printf("  %-11s %9s %9s %9s %9s %6s\n", "uarch", "frontend", "ports",
              "deps", "estimate", "uops");
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const uarch::ThroughputModel model(microarchitecture);
    const uarch::ThroughputBreakdown breakdown = model.Estimate(block);
    std::printf("  %-11s %9.2f %9.2f %9.2f %9.2f %6d\n",
                std::string(MicroarchitectureName(microarchitecture)).c_str(),
                breakdown.frontend_bound, breakdown.port_bound,
                breakdown.dependency_bound, breakdown.cycles_per_iteration,
                breakdown.total_uops);
  }

  // A small three-task model trained on synthetic blocks; the runner
  // owns it, `model` keeps the GRANITE-specific view.
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 600;
  synthesis.seed = 7;
  const dataset::Dataset training_data =
      dataset::SynthesizeDataset(synthesis);
  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(16);
  model_config.message_passing_iterations = 3;
  model_config.num_tasks = uarch::kNumMicroarchitectures;
  model_config.decoder_output_bias_init = 1.0f;
  auto granite =
      std::make_unique<core::GraniteModel>(&vocabulary, model_config);
  const core::GraniteModel& model = *granite;
  train::TrainerConfig trainer_config;
  trainer_config.num_steps = 1500;
  trainer_config.batch_size = 32;
  trainer_config.adam.learning_rate = 0.02f;
  trainer_config.final_learning_rate = 0.001f;
  trainer_config.target_scale = 100.0;
  trainer_config.tasks = uarch::AllMicroarchitectures();
  train::ModelRunner runner(std::move(granite), trainer_config);
  runner.Train(training_data, dataset::Dataset());

  std::printf("\n# GRANITE per-instruction contributions (cycles per 100 "
              "iterations;\n#   a %d-step model trained on %zu synthetic "
              "blocks)\n",
              trainer_config.num_steps, training_data.size());
  std::vector<std::vector<double>> contributions;
  std::printf("  %-34s", "instruction");
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    std::printf(" %11s",
                std::string(MicroarchitectureName(microarchitecture)).c_str());
    contributions.push_back(model.PredictPerInstruction(
        {&block}, static_cast<int>(microarchitecture))[0]);
  }
  std::printf("\n");
  for (std::size_t i = 0; i < block.size(); ++i) {
    std::printf("  %-34s", block.instructions[i].ToString().c_str());
    for (const std::vector<double>& per_task : contributions) {
      std::printf(" %11.1f", per_task[i] * 100.0);
    }
    std::printf("\n");
  }
  std::printf("  %-34s", "block prediction (the sum)");
  for (const uarch::Microarchitecture microarchitecture :
       uarch::AllMicroarchitectures()) {
    const int task = static_cast<int>(microarchitecture);
    std::printf(" %11.1f", model.Predict({&block}, task)[0] * 100.0);
  }
  std::printf("\n");
  return 0;
}
