/**
 * @file
 * Shared infrastructure for the benchmark binaries that regenerate the
 * paper's tables and figures.
 *
 * Every bench prints a header describing the scaled-down configuration:
 * the paper trains 256-dimensional models for >=6M steps (a week) on
 * 1.4M-block datasets; the benches train proportionally smaller models
 * on synthetic datasets in minutes. Absolute numbers therefore differ
 * from the paper; the *shape* of each table (who wins, ablation trends)
 * is the reproduction target, and EXPERIMENTS.md records both.
 */
#ifndef GRANITE_BENCH_BENCH_COMMON_H_
#define GRANITE_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "dataset/dataset.h"
#include "ithemal/ithemal_model.h"
#include "train/runners.h"

namespace granite::bench {

/** Scaled-down experiment sizes; --quick shrinks them further (for smoke
 * runs of the bench suite). */
struct Scale {
  bool quick = false;
  /** Synthetic stand-in for the Ithemal dataset (1.4M blocks). */
  std::size_t ithemal_blocks = 2500;
  /** Synthetic stand-in for BHive; the paper notes it is 5x smaller. */
  std::size_t bhive_blocks = 500;
  int granite_steps = 4000;
  int lstm_steps = 3000;
  int embedding_size = 24;
  /** Paper Table 4: 4-8 iterations, best results at 8 (Table 7). */
  int message_passing_iterations = 8;
  int batch_size = 32;
  /** Initial Adam learning rate; decays linearly to final_learning_rate
   * over the run (the paper's fixed 1e-3 over >=6M steps plays the same
   * role at a much longer time scale). */
  float learning_rate = 0.005f;
  float final_learning_rate = 0.0005f;
};

/**
 * Parses --quick and --json-out=PATH from the command line. A bench that
 * takes more flags names their prefixes in `extra_flags` (e.g.
 * "--import-csv=") and reads their values itself. Any other argument
 * prints the accepted flags and exits with status 2.
 */
Scale ParseScale(int argc, char** argv,
                 const std::vector<std::string>& extra_flags = {});

/**
 * Machine-readable metric registry for the CI perf spine. Benches call
 * RecordMetric() next to the human-readable printf of the same number;
 * when a --json-out=PATH flag enabled output (SetMetricsJsonPath),
 * WriteMetricsJson() dumps every recorded metric as a flat
 * {"name": value, ...} JSON object for bench/compare_bench.py.
 */
void SetMetricsJsonPath(const std::string& path);
void RecordMetric(const std::string& name, double value);

/** Writes the metric JSON if a path was set; true when written. */
bool WriteMetricsJson();

/** Prints the standard scaled-configuration banner. */
void PrintBanner(const std::string& title, const Scale& scale);

/** The paper's dataset splits: 83/17 train/test, then 98/2
 * train/validation inside the training part (§4), as views over one
 * owned dataset (so the object is neither copied nor moved). */
struct SplitDataset {
  explicit SplitDataset(dataset::Dataset synthesized);
  SplitDataset(const SplitDataset&) = delete;
  SplitDataset& operator=(const SplitDataset&) = delete;

  const dataset::Dataset all;
  /** The 83% training part, which train and validation split. */
  const dataset::SubsetBlockSource train_part;
  const dataset::SubsetBlockSource train;
  const dataset::SubsetBlockSource validation;
  const dataset::SubsetBlockSource test;
};

/** Synthesizes and splits a dataset measured with `tool`. */
SplitDataset MakeDataset(uarch::MeasurementTool tool, std::size_t blocks,
                         uint64_t seed);

/** Trainer configuration covering all three microarchitectures. */
train::TrainerConfig MultiTaskTrainerConfig(const Scale& scale, int steps);

/** Trainer configuration for a single microarchitecture. */
train::TrainerConfig SingleTaskTrainerConfig(const Scale& scale, int steps,
                                             uarch::Microarchitecture task);

/**
 * GRANITE hyper-parameters at bench scale. The decoder output bias is
 * initialized from `reference` (the training split) so the untrained
 * model predicts the dataset mean — a prerequisite for convergence at
 * scaled-down step counts.
 */
core::GraniteConfig GraniteBenchConfig(const Scale& scale, int num_tasks,
                                       const dataset::BlockSource& reference);

/** Ithemal / Ithemal+ hyper-parameters at bench scale. */
ithemal::IthemalConfig IthemalBenchConfig(
    const Scale& scale, ithemal::DecoderKind decoder, int num_tasks,
    const dataset::BlockSource& reference);

/** Mean throughput of `data` over all microarchitectures, divided by the
 * bench target scale (100). */
double MeanScaledThroughput(const dataset::BlockSource& data);

/** Mean instruction count per block. */
double MeanInstructions(const dataset::BlockSource& data);

/** Formats 0.0667 as "6.67%". */
std::string Percent(double fraction);

/** Formats with fixed precision. */
std::string Fixed(double value, int digits = 4);

/** Prints one fixed-width table row. */
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/** Prints a separator line matching `widths`. */
void PrintSeparator(const std::vector<int>& widths);

}  // namespace granite::bench

#endif  // GRANITE_BENCH_BENCH_COMMON_H_
