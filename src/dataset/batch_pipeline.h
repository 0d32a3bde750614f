/**
 * @file
 * Batch preparation for the data-parallel trainer, with an optional
 * asynchronous prefetch thread.
 *
 * A training step consumes a PreparedBatch: the sampled indices, the
 * block pointers, and the batch split into contiguous per-worker shards,
 * each optionally pre-encoded into a BatchedGraph. Graph construction is
 * pure CPU work that needs no model parameters, so the pipeline can build
 * batch k+1 on a background thread while step k runs forward/backward —
 * hiding the encoding latency entirely once training is underway.
 */
#ifndef GRANITE_DATASET_BATCH_PIPELINE_H_
#define GRANITE_DATASET_BATCH_PIPELINE_H_

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dataset/dataset.h"
#include "graph/batch.h"

namespace granite::dataset {

/** Encodes a list of blocks into one batched graph (e.g.
 * GraniteModel::EncodeBlocks). Must be thread-safe and parameter-free. */
using EncodeFn = std::function<graph::BatchedGraph(
    const std::vector<const assembly::BasicBlock*>&)>;

/** One training batch, sampled, sharded, and optionally pre-encoded.
 * A batch is self-contained: it carries the ground-truth labels and
 * pins any streaming-source shards its block pointers live in, so a
 * training step needs no further access to the source. */
struct PreparedBatch {
  /** Sample indices into the source dataset, batch order. */
  std::vector<std::size_t> indices;
  /** Block pointer per sample (parallel to `indices`). */
  std::vector<const assembly::BasicBlock*> blocks;
  /** Ground-truth labels per sample (parallel to `indices`). */
  std::vector<std::array<double, uarch::kNumMicroarchitectures>>
      throughputs;
  /** Keep-alive handles for the shards of a streaming source. */
  std::vector<std::shared_ptr<const void>> pins;

  /** A contiguous [begin, end) slice of the batch owned by one worker. */
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    /** The shard's blocks as one batched graph; only when an EncodeFn was
     * provided (has_graph). */
    graph::BatchedGraph graph;
    bool has_graph = false;
  };
  std::vector<Shard> shards;
};

/**
 * Builds a PreparedBatch synchronously: resolves `indices` to blocks and
 * labels, splits them into `num_shards` near-equal contiguous shards
 * (empty shards are dropped), and encodes each shard iff `encode` is
 * non-null. Streaming sources' backing shards are pinned in the batch.
 */
PreparedBatch PrepareBatch(const BlockSource& source,
                           std::vector<std::size_t> indices, int num_shards,
                           const EncodeFn& encode);

/**
 * Double-buffered background batch builder: owns a BatchSampler and a
 * producer thread that always keeps one PreparedBatch ready. Next() hands
 * over the ready batch and immediately wakes the producer to build the
 * following one. The sequence of batches is identical to calling the
 * sampler synchronously with the same seed.
 */
class PrefetchingBatchPipeline {
 public:
  /** `source` must outlive the pipeline. `encode` may be null. */
  PrefetchingBatchPipeline(const BlockSource* source, std::size_t batch_size,
                           int num_shards, uint64_t seed, EncodeFn encode);

  /** Stops and joins the producer thread. */
  ~PrefetchingBatchPipeline();

  PrefetchingBatchPipeline(const PrefetchingBatchPipeline&) = delete;
  PrefetchingBatchPipeline& operator=(const PrefetchingBatchPipeline&) =
      delete;

  /** Blocks until the prefetched batch is ready and returns it. When
   * building a batch threw (e.g. a CorpusError from the source's Get),
   * rethrows that exception instead, on this and every later call; the
   * producer stops at the failure. */
  PreparedBatch Next();

 private:
  void ProducerLoop();

  const BlockSource* source_;
  int num_shards_;
  EncodeFn encode_;
  BatchSampler sampler_;

  std::mutex mutex_;
  std::condition_variable slot_filled_;
  std::condition_variable slot_emptied_;
  std::optional<PreparedBatch> slot_;
  /** What building the batch after the last slotted one threw. */
  std::exception_ptr error_;
  bool stop_ = false;
  std::thread producer_;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_BATCH_PIPELINE_H_
