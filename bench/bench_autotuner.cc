/**
 * @file
 * Closed-loop autotuner benchmark: the compiler-in-the-loop subsystem
 * (src/autotune) optimizing a pessimized corpus against a live
 * InferenceServer, measuring the end-to-end economics of search-driven
 * block optimization:
 *
 *   - blocks improved per second (the tuner's useful output rate),
 *   - candidates evaluated per second (search throughput),
 *   - the server's prediction cache hit rate under autotuner traffic
 *     (beam siblings re-derive ancestors across waves; the search
 *     resubmits them on purpose so the cache, not the client, is the
 *     memoizer — at beam 4 the hit rate must clear 50% once the search
 *     is deep enough to saturate its reachable set), and
 *   - server QPS while the tuner is the only tenant, and
 *   - the kernel's share of the process CPU time and the minor page
 *     faults per scored candidate (heap memory returned to the OS
 *     between forwards and faulted back in shows up in both).
 *
 * The model is an untrained embedding-8 GRANITE: an untrained model
 * serves identical-cost forwards to a trained one (same graph sizes,
 * same matmuls), so serving-path numbers carry over while the bench
 * stays seconds-fast (same rationale as bench_serving). The corpus is
 * generator output pessimized with DeoptimizeBlock, so "improved" has a
 * ground truth: the analytical oracle verifies recoveries, mirroring
 * the acceptance gate of `granite_cli autotune`.
 *
 * --quick shrinks the corpus for the CI perf-smoke job; --json-out=PATH
 * emits the metrics for bench/compare_bench.py.
 */
#include <chrono>
#include <cstdio>
#include <vector>

#include "autotune/search.h"
#include "autotune/transforms.h"
#include "base/resource_usage.h"
#include "bench_common.h"
#include "core/granite_model.h"
#include "dataset/generator.h"
#include "graph/vocabulary.h"
#include "serve/inference_server.h"
#include "uarch/throughput_model.h"

namespace granite::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Run(int argc, char** argv) {
  const Scale scale = ParseScale(argc, argv);
  const std::size_t num_blocks = scale.quick ? 12 : 48;

  std::printf("== bench_autotuner: closed-loop search vs served model ==\n");
  std::printf("%zu blocks, %s run\n\n", num_blocks,
              scale.quick ? "quick" : "full");

  // Corpus: generator blocks whose instructions the transform catalog
  // understands, pessimized so every block has recoverable headroom.
  const uarch::ThroughputModel oracle(uarch::Microarchitecture::kHaswell);
  dataset::GeneratorConfig generator_config;
  generator_config.max_instructions = 8;
  dataset::BlockGenerator generator(generator_config, /*seed=*/20260808);
  std::vector<assembly::BasicBlock> corpus;
  while (corpus.size() < num_blocks) {
    assembly::BasicBlock block = generator.GenerateMany(1).front();
    if (autotune::EnumerateCandidates(block).empty()) continue;
    corpus.push_back(autotune::DeoptimizeBlock(block, oracle, 3));
  }

  // Untrained embedding-8 model behind a batching server, the same
  // shard/batch/cache shape `granite_cli autotune --model-file` uses.
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig model_config =
      core::GraniteConfig().WithEmbeddingSize(8);
  model_config.message_passing_iterations = 1;
  model_config.num_tasks = 1;
  core::GraniteModel model(&vocabulary, model_config);

  serve::InferenceServerConfig server_config;
  server_config.num_workers = 2;
  server_config.max_batch_size = 16;
  server_config.prediction_cache_capacity = 4096;
  serve::InferenceServer server(&model, server_config);

  // Beam 4 / depth 10: deep enough that later waves mostly re-derive
  // already-scored spellings, which is exactly the cache-hit regime the
  // acceptance bar (>=50% at beam >=4) is about.
  autotune::ServerCostClient client(&server, /*task=*/0);
  autotune::SearchConfig search_config;
  search_config.beam_width = 4;
  search_config.max_depth = 10;
  autotune::BlockOptimizer optimizer(&client, search_config);

  std::size_t improved_model = 0;
  std::size_t improved_oracle = 0;
  std::uint64_t candidates_scored = 0;
  const base::CpuUsage usage_before = base::ProcessCpuUsage();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const autotune::OptimizeResult result = optimizer.Optimize(corpus[i]);
    candidates_scored += result.candidates_scored;
    if (result.improved) ++improved_model;
    // Ground truth, not the learned model's own opinion: did the search
    // recover real cycles per the analytical oracle?
    const double naive = oracle.CyclesPerIteration(corpus[i]);
    const double tuned = oracle.CyclesPerIteration(result.best);
    if (tuned < naive - 1e-9) ++improved_oracle;
  }
  const double seconds = SecondsSince(start);
  const base::CpuUsage usage = base::ProcessCpuUsage() - usage_before;
  const serve::ServerStats stats = server.Stats();
  const double cpu_s = usage.user_s + usage.sys_s;
  const double sys_cpu_share = cpu_s > 0.0 ? usage.sys_s / cpu_s : 0.0;
  const double faults_per_candidate =
      candidates_scored > 0 ? static_cast<double>(usage.minor_faults) /
                                  static_cast<double>(candidates_scored)
                            : 0.0;

  const double blocks_improved_per_sec = improved_model / seconds;
  const double candidates_per_sec = candidates_scored / seconds;
  std::printf("optimized %zu blocks in %.2fs\n", corpus.size(), seconds);
  std::printf("  improved per cost model : %zu (%s)\n", improved_model,
              Percent(double(improved_model) / corpus.size()).c_str());
  std::printf("  improved per oracle     : %zu (%s)\n", improved_oracle,
              Percent(double(improved_oracle) / corpus.size()).c_str());
  std::printf("  blocks improved/sec     : %.2f\n", blocks_improved_per_sec);
  std::printf("  candidates scored       : %llu (%.0f/sec)\n",
              static_cast<unsigned long long>(candidates_scored),
              candidates_per_sec);
  std::printf("  server cache hit rate   : %s (beam %d, depth %d)\n",
              Percent(stats.cache_hit_rate).c_str(),
              search_config.beam_width, search_config.max_depth);
  std::printf("  server qps              : %.0f\n", stats.qps);
  std::printf("  mean batch occupancy    : %.2f\n",
              stats.mean_batch_occupancy);
  std::printf("  cpu user/sys            : %.2fs / %.2fs (sys share %s)\n",
              usage.user_s, usage.sys_s, Percent(sys_cpu_share).c_str());
  std::printf("  minor faults/candidate  : %.2f\n", faults_per_candidate);

  RecordMetric("autotune.blocks_improved_per_sec", blocks_improved_per_sec);
  RecordMetric("autotune.candidates_per_sec", candidates_per_sec);
  RecordMetric("autotune.oracle_improved_fraction",
               double(improved_oracle) / corpus.size());
  RecordMetric("autotune.cache_hit_rate", stats.cache_hit_rate);
  RecordMetric("autotune.server_qps", stats.qps);
  RecordMetric("autotune.mean_batch_occupancy", stats.mean_batch_occupancy);
  RecordMetric("autotune.sys_cpu_share", sys_cpu_share);
  RecordMetric("autotune.minor_faults_per_candidate", faults_per_candidate);

  WriteMetricsJson();
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) { granite::bench::Run(argc, argv); }
