/**
 * @file
 * Reproduces Table 10: per-batch training and inference run time for all
 * models, using google-benchmark. The paper's batches are 100 basic
 * blocks; we keep that batch size but use smaller embeddings (the paper
 * timed 256-dimensional models on an RTX 2080 Ti; CPU-only timing of the
 * full size would dominate the bench suite).
 *
 * Expected shape (paper's *CPU inference* column): the two-level LSTM is
 * sequential over tokens and instructions while the GNN is a handful of
 * large batched matmuls, so on CPU Ithemal and GRANITE are within a
 * small factor of each other (the paper reports GRANITE 27% slower on
 * CPU, 3x faster on GPU). Multi-task heads add only marginal cost to
 * either model — the basis of the §5.4 cost claim.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/batch.h"
#include "graph/graph_builder.h"
#include "uarch/throughput_model.h"

namespace granite::bench {
namespace {

constexpr int kBatchBlocks = 100;  // Paper: 100 blocks per batch.
constexpr int kEmbedding = 32;     // Paper: 256 (GPU-sized).

/** A fixed batch of blocks shared by all timing runs. */
const dataset::Dataset& TimingDataset() {
  static const dataset::Dataset* const data = [] {
    dataset::SynthesisConfig config;
    config.num_blocks = kBatchBlocks;
    config.seed = 1010;
    return new dataset::Dataset(dataset::SynthesizeDataset(config));
  }();
  return *data;
}

Scale TimingScale() {
  Scale scale;
  scale.embedding_size = kEmbedding;
  scale.message_passing_iterations = 4;
  scale.batch_size = kBatchBlocks;
  return scale;
}

train::TrainerConfig TimingTrainerConfig(int num_tasks) {
  train::TrainerConfig config =
      MultiTaskTrainerConfig(TimingScale(), /*steps=*/1);
  if (num_tasks == 1) {
    config.tasks = {uarch::Microarchitecture::kIvyBridge};
  }
  config.batch_size = kBatchBlocks;
  config.validation_every = 0;
  return config;
}

void RunTrainingSteps(benchmark::State& state, train::Trainer& trainer,
                      const dataset::Dataset& data) {
  for (auto _ : state) {
    (void)_;
    // One optimizer step over one batch of 100 blocks: the trainer is
    // configured for exactly one step and validation is disabled.
    trainer.Train(data, dataset::Dataset());
  }
}

void BM_GraniteTrainSingleTask(benchmark::State& state) {
  train::ModelRunner runner(GraniteBenchConfig(TimingScale(), 1, TimingDataset()),
                             TimingTrainerConfig(1));
  RunTrainingSteps(state, runner.trainer(), TimingDataset());
}
BENCHMARK(BM_GraniteTrainSingleTask)->Unit(benchmark::kMillisecond);

void BM_GraniteTrainMultiTask(benchmark::State& state) {
  train::ModelRunner runner(GraniteBenchConfig(TimingScale(), 3, TimingDataset()),
                             TimingTrainerConfig(3));
  RunTrainingSteps(state, runner.trainer(), TimingDataset());
}
BENCHMARK(BM_GraniteTrainMultiTask)->Unit(benchmark::kMillisecond);

void BM_IthemalTrainSingleTask(benchmark::State& state) {
  train::ModelRunner runner(
      IthemalBenchConfig(TimingScale(), ithemal::DecoderKind::kDotProduct,
                         1, TimingDataset()),
      TimingTrainerConfig(1));
  RunTrainingSteps(state, runner.trainer(), TimingDataset());
}
BENCHMARK(BM_IthemalTrainSingleTask)->Unit(benchmark::kMillisecond);

void BM_IthemalPlusTrainMultiTask(benchmark::State& state) {
  train::ModelRunner runner(
      IthemalBenchConfig(TimingScale(), ithemal::DecoderKind::kMlp, 3,
                         TimingDataset()),
      TimingTrainerConfig(3));
  RunTrainingSteps(state, runner.trainer(), TimingDataset());
}
BENCHMARK(BM_IthemalPlusTrainMultiTask)->Unit(benchmark::kMillisecond);

void BM_GraniteInferenceSingleTask(benchmark::State& state) {
  train::ModelRunner runner(GraniteBenchConfig(TimingScale(), 1, TimingDataset()),
                             TimingTrainerConfig(1));
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(runner.Predict(TimingDataset(), 0));
  }
}
BENCHMARK(BM_GraniteInferenceSingleTask)->Unit(benchmark::kMillisecond);

void BM_GraniteInferenceMultiTask(benchmark::State& state) {
  train::ModelRunner runner(GraniteBenchConfig(TimingScale(), 3, TimingDataset()),
                             TimingTrainerConfig(3));
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(runner.Predict(TimingDataset(), 2));
  }
}
BENCHMARK(BM_GraniteInferenceMultiTask)->Unit(benchmark::kMillisecond);

void BM_IthemalInferenceSingleTask(benchmark::State& state) {
  train::ModelRunner runner(
      IthemalBenchConfig(TimingScale(), ithemal::DecoderKind::kDotProduct,
                         1, TimingDataset()),
      TimingTrainerConfig(1));
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(runner.Predict(TimingDataset(), 0));
  }
}
BENCHMARK(BM_IthemalInferenceSingleTask)->Unit(benchmark::kMillisecond);

void BM_IthemalPlusInferenceMultiTask(benchmark::State& state) {
  train::ModelRunner runner(
      IthemalBenchConfig(TimingScale(), ithemal::DecoderKind::kMlp, 3,
                         TimingDataset()),
      TimingTrainerConfig(3));
  for (auto _ : state) {
    (void)_;
    benchmark::DoNotOptimize(runner.Predict(TimingDataset(), 2));
  }
}
BENCHMARK(BM_IthemalPlusInferenceMultiTask)->Unit(benchmark::kMillisecond);

/** Non-model reference points: graph construction and the analytical
 * oracle, per batch of 100 blocks. */
void BM_GraphEncodingPerBatch(benchmark::State& state) {
  const graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  const graph::GraphBuilder builder(&vocabulary);
  for (auto _ : state) {
    (void)_;
    std::vector<graph::BlockGraph> graphs;
    for (const auto& sample : TimingDataset().samples()) {
      graphs.push_back(builder.Build(sample.block));
    }
    benchmark::DoNotOptimize(
        graph::BatchGraphs(graphs, vocabulary).num_nodes);
  }
}
BENCHMARK(BM_GraphEncodingPerBatch)->Unit(benchmark::kMillisecond);

void BM_AnalyticalOraclePerBatch(benchmark::State& state) {
  const uarch::ThroughputModel model(uarch::Microarchitecture::kSkylake);
  for (auto _ : state) {
    (void)_;
    double total = 0.0;
    for (const auto& sample : TimingDataset().samples()) {
      total += model.CyclesPerIteration(sample.block);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AnalyticalOraclePerBatch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace granite::bench

BENCHMARK_MAIN();
