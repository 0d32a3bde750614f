/**
 * @file
 * Throughput datasets: labeled basic blocks with ground-truth throughput
 * for every target microarchitecture, plus the deterministic splits the
 * paper uses (83% train / 17% test, and 98% train / 2% validation inside
 * the training part; §4).
 *
 * BlockSource is the one dataset API: "an indexed collection of labeled
 * blocks", independent of where the samples live. Dataset is its fully
 * materialized implementation; block_source.h holds the views and the
 * streaming sources. Batch preparation, the trainer and the corpus
 * writer all read a BlockSource, so the same seed trains bit-identically
 * whether the samples sit in memory or in a corpus file.
 */
#ifndef GRANITE_DATASET_DATASET_H_
#define GRANITE_DATASET_DATASET_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "asm/instruction.h"
#include "dataset/generator.h"
#include "uarch/measurement.h"
#include "uarch/microarchitecture.h"

namespace granite::dataset {

/** One labeled basic block. */
struct Sample {
  assembly::BasicBlock block;
  /** Measured throughput (cycles per 100 iterations) per
   * microarchitecture, indexed by Microarchitecture enum value. */
  std::array<double, uarch::kNumMicroarchitectures> throughput = {};
};

/**
 * A pinned view of one sample. `block` and `throughput` stay valid while
 * `pin` is alive (for a Dataset they point into its samples and `pin` is
 * empty).
 */
struct SampleView {
  const assembly::BasicBlock* block = nullptr;
  const std::array<double, uarch::kNumMicroarchitectures>* throughput =
      nullptr;
  /** Keep-alive handle for the backing shard of a streaming source. */
  std::shared_ptr<const void> pin;
};

/** An indexed, possibly streaming, collection of labeled blocks. */
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /** Total number of samples. */
  virtual std::size_t size() const = 0;

  /** Returns a pinned view of sample `index`. Thread-safe. */
  virtual SampleView Get(std::size_t index) const = 0;

  bool empty() const { return size() == 0; }

  /** Ground-truth column of one microarchitecture (one full pass). */
  std::vector<double> Throughputs(uarch::Microarchitecture uarch) const;

 protected:
  // Copyable and movable only as part of a derived source (a Dataset),
  // never by assignment through a BlockSource reference.
  BlockSource() = default;
  BlockSource(const BlockSource&) = default;
  BlockSource(BlockSource&&) = default;
  BlockSource& operator=(const BlockSource&) = default;
  BlockSource& operator=(BlockSource&&) = default;
};

/** The index lists of a two-way split. */
struct IndexSplit {
  std::vector<std::size_t> first;
  std::vector<std::size_t> second;
};

/**
 * Splits [0, size) into (`first_fraction`, rest) by a seeded shuffle; a
 * SubsetBlockSource views either list without copying. The paper uses
 * 0.83 for train/test and 0.98 for train/validation.
 */
IndexSplit SplitIndices(std::size_t size, double first_fraction,
                        uint64_t seed);

/** An immutable, fully materialized list of samples. */
class Dataset : public BlockSource {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<Sample> samples);

  const std::vector<Sample>& samples() const { return samples_; }
  std::size_t size() const override { return samples_.size(); }
  SampleView Get(std::size_t index) const override;
  const Sample& operator[](std::size_t index) const;

  /** Pointers to all blocks, e.g. for whole-dataset inference. */
  std::vector<const assembly::BasicBlock*> Blocks() const;

 private:
  std::vector<Sample> samples_;
};

/** Configuration of dataset synthesis. */
struct SynthesisConfig {
  std::size_t num_blocks = 1000;
  /** The measurement methodology; kIthemalTool produces an
   * "Ithemal-style" dataset, kBHiveTool a "BHive-style" one. */
  uarch::MeasurementTool tool = uarch::MeasurementTool::kIthemalTool;
  GeneratorConfig generator;
  uint64_t seed = 7;
};

/**
 * Synthesizes a labeled dataset: generates blocks and measures each one
 * on all three microarchitectures with the configured tool. Duplicate
 * blocks (by fingerprint) are regenerated, so all samples are unique.
 * This is the one-shard case of StreamingSynthesisSource (block_source.h):
 * all `num_blocks` samples are planned as one shard, which is
 * materialized once, so the two are sample-for-sample equal by
 * construction.
 */
Dataset SynthesizeDataset(const SynthesisConfig& config);

/**
 * Re-labels the blocks of `dataset` with a different measurement tool,
 * used to reproduce the paper's cross-dataset evaluation (train on
 * Ithemal-style labels, test on BHive-style labels of unseen blocks).
 */
Dataset RelabelDataset(const BlockSource& dataset,
                       uarch::MeasurementTool tool);

/** Simple batching: yields index slices of a seeded shuffle, restarting
 * (with a fresh shuffle) when the dataset is exhausted. */
class BatchSampler {
 public:
  BatchSampler(std::size_t dataset_size, std::size_t batch_size,
               uint64_t seed);

  /** Returns the next batch of sample indices (always `batch_size` long;
   * the tail of an epoch wraps into the next shuffle). */
  std::vector<std::size_t> NextBatch();

 private:
  void Reshuffle();

  std::size_t dataset_size_;
  std::size_t batch_size_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_DATASET_H_
