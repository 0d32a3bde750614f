/**
 * @file
 * Views and streaming implementations of dataset::BlockSource.
 *
 * The paper trains on corpora of >1M basic blocks; materializing every
 * Sample in one std::vector caps the corpus far below that scale. Next to
 * the in-memory Dataset (dataset.h), a BlockSource can be streamed from
 * an on-disk corpus file (corpus_io.h) or synthesized lazily from the
 * seeded generator (here), and any source can be re-indexed into a split
 * without copying samples (SubsetBlockSource).
 *
 * Streaming sources keep at most a small LRU window of shards resident;
 * Get() hands out views that pin their backing shard, so a view stays
 * valid across evictions for as long as the caller holds it.
 */
#ifndef GRANITE_DATASET_BLOCK_SOURCE_H_
#define GRANITE_DATASET_BLOCK_SOURCE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "base/lru_cache.h"
#include "dataset/dataset.h"

namespace granite::dataset {

/**
 * A re-indexed view of another source: element i is base[indices[i]].
 * Used for train/validation/test splits without copying samples; `base`
 * must outlive the subset.
 */
class SubsetBlockSource : public BlockSource {
 public:
  SubsetBlockSource(const BlockSource* base,
                    std::vector<std::size_t> indices);

  std::size_t size() const override { return indices_.size(); }
  SampleView Get(std::size_t index) const override;

 private:
  const BlockSource* base_;
  std::vector<std::size_t> indices_;
};

/**
 * Base for sources that materialize fixed-size shards on demand and keep
 * an LRU window of them resident. Get() is mutex-serialized; a shard
 * miss invokes LoadShard() while holding the lock.
 */
class ShardedBlockSource : public BlockSource {
 public:
  SampleView Get(std::size_t index) const override;

  std::size_t records_per_shard() const { return records_per_shard_; }

  /** Number of shard materializations so far (monotone; for tests and
   * the IO bench — proves cached access skips LoadShard). */
  std::size_t shard_loads() const;

 protected:
  ShardedBlockSource(std::size_t records_per_shard,
                     std::size_t cache_shards);

  /** Materializes shard `shard_index` (samples
   * [shard_index * records_per_shard, ...)). Called under the mutex. */
  virtual std::vector<Sample> LoadShard(std::size_t shard_index) const = 0;

 private:
  using ShardPtr = std::shared_ptr<const std::vector<Sample>>;

  std::size_t records_per_shard_;
  mutable std::mutex mutex_;
  mutable base::LruCache<std::size_t, ShardPtr> cache_;
  mutable std::size_t shard_loads_ = 0;
};

/** Tuning of a streaming-synthesis source. */
struct StreamingSynthesisOptions {
  /** Samples per lazily materialized shard. */
  std::size_t records_per_shard = 4096;
  /** Shards kept resident (LRU). */
  std::size_t cache_shards = 8;
};

/**
 * The one synthesis loop: generates, deduplicates and labels the samples
 * of `config` without ever materializing them all. Construction runs the
 * generator once (recording per-shard RNG snapshots and accept/reject
 * decisions, but no samples), and shards are regenerated — blocks and
 * measurements — on demand. SynthesizeDataset(config) is the one-shard
 * case, so the same config + seed gives the same samples at any shard
 * size. Peak memory is O(cache_shards * records_per_shard) samples; the
 * dedup fingerprints (8-16 bytes per block) live only during construction.
 */
class StreamingSynthesisSource : public ShardedBlockSource {
 public:
  explicit StreamingSynthesisSource(const SynthesisConfig& config,
                                    const StreamingSynthesisOptions&
                                        options = {});

  std::size_t size() const override { return num_blocks_; }

 protected:
  std::vector<Sample> LoadShard(std::size_t shard_index) const override;

 private:
  /** Replay recipe of one shard: the generator state at the shard's
   * first attempt, plus which attempts the dedup pass accepted. */
  struct ShardPlan {
    Rng rng_state;
    std::vector<bool> accepted;
  };

  SynthesisConfig config_;
  std::size_t num_blocks_;
  std::vector<ShardPlan> plans_;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_BLOCK_SOURCE_H_
