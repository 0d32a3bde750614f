/**
 * @file
 * Throughput of the parallel execution engine: training steps/sec with
 * the batch sharded across 1/2/4/8 worker threads (with and without the
 * prefetching batch pipeline), and the PredictBatch LRU-cache hit rate /
 * speedup on a BHive-style workload where hot blocks repeat.
 *
 * Speedups are bounded by the machine: on a single-core container every
 * worker count collapses to ~1x, so the table also prints the hardware
 * concurrency to make the numbers interpretable.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace granite::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Trains a fresh model for `steps` and returns steps/sec. */
double MeasureTraining(const Scale& scale, const SplitDataset& data,
                       int steps, int num_workers, bool prefetch) {
  train::TrainerConfig trainer_config =
      SingleTaskTrainerConfig(scale, steps,
                              uarch::Microarchitecture::kIvyBridge);
  trainer_config.validation_every = 0;  // Measure pure training throughput.
  trainer_config.num_workers = num_workers;
  trainer_config.prefetch = prefetch;
  train::ModelRunner runner(GraniteBenchConfig(scale, 1, data.train),
                             trainer_config);
  const Clock::time_point start = Clock::now();
  runner.Train(data.train, data.validation);
  return steps / SecondsSince(start);
}

void Run(int argc, char** argv) {
  Scale scale = ParseScale(argc, argv);
  // The scaling bench cares about steps/sec, not model quality: a short
  // run per configuration is enough for stable timing.
  scale.message_passing_iterations = 4;
  const int steps = scale.quick ? 10 : 40;
  PrintBanner("Parallel engine: training scaling & inference caching",
              scale);
  std::printf("hardware concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  const SplitDataset data = MakeDataset(
      uarch::MeasurementTool::kBHiveTool, scale.bhive_blocks, 901);

  // ---- Training scaling --------------------------------------------------
  const std::vector<int> widths = {10, 10, 14, 12};
  PrintSeparator(widths);
  PrintRow({"workers", "prefetch", "steps/sec", "speedup"}, widths);
  PrintSeparator(widths);
  double baseline = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    for (const bool prefetch : {false, true}) {
      const double rate =
          MeasureTraining(scale, data, steps, workers, prefetch);
      if (workers == 1 && !prefetch) baseline = rate;
      if (!prefetch) {
        RecordMetric("parallel.train.workers" + std::to_string(workers) +
                         "_steps_per_sec",
                     rate);
      }
      PrintRow({std::to_string(workers), prefetch ? "on" : "off",
                Fixed(rate, 2), Fixed(rate / baseline, 2) + "x"},
               widths);
    }
  }
  PrintSeparator(widths);

  // ---- Inference caching -------------------------------------------------
  // BHive-style serving: the same hot blocks arrive over and over. Issue
  // one PredictBatch per round so rounds after the first are pure cache
  // hits (a single giant batch would be answered by in-batch dedup
  // instead, which the hit counters would undersell).
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary,
                           GraniteBenchConfig(scale, 1, data.train));
  const std::vector<const assembly::BasicBlock*> working_set =
      data.test.Blocks();
  const int rounds = scale.quick ? 3 : 10;
  const std::size_t total_requests = working_set.size() * rounds;

  Clock::time_point start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    model.PredictBatch(working_set, 0);
  }
  const double uncached_seconds = SecondsSince(start);

  model.EnablePredictionCache(working_set.size());
  start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    model.PredictBatch(working_set, 0);
  }
  const double cached_seconds = SecondsSince(start);
  const double hits = static_cast<double>(model.prediction_cache_hits());
  const double lookups =
      hits + static_cast<double>(model.prediction_cache_misses());

  std::printf("\ninference: %zu requests over %zu unique blocks\n",
              total_requests, working_set.size());
  std::printf("  uncached: %s blocks/sec\n",
              Fixed(total_requests / uncached_seconds, 0).c_str());
  std::printf("  cached:   %s blocks/sec (%sx)\n",
              Fixed(total_requests / cached_seconds, 0).c_str(),
              Fixed(uncached_seconds / cached_seconds, 1).c_str());
  std::printf("  hit rate: %s (%0.f/%0.f lookups)\n",
              Percent(lookups > 0 ? hits / lookups : 0.0).c_str(), hits,
              lookups);
  RecordMetric("parallel.cache.speedup", uncached_seconds / cached_seconds);
  RecordMetric("parallel.cache.hit_rate",
               lookups > 0 ? hits / lookups : 0.0);
  WriteMetricsJson();
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) {
  granite::bench::Run(argc, argv);
  return 0;
}
