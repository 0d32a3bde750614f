#include "dataset/block_source.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"

namespace granite::dataset {

SubsetBlockSource::SubsetBlockSource(const BlockSource* base,
                                     std::vector<std::size_t> indices)
    : base_(base), indices_(std::move(indices)) {
  GRANITE_CHECK(base != nullptr);
  for (const std::size_t index : indices_) {
    GRANITE_CHECK_LT(index, base_->size());
  }
}

SampleView SubsetBlockSource::Get(std::size_t index) const {
  GRANITE_CHECK_LT(index, indices_.size());
  return base_->Get(indices_[index]);
}

ShardedBlockSource::ShardedBlockSource(std::size_t records_per_shard,
                                       std::size_t cache_shards)
    : records_per_shard_(records_per_shard),
      cache_(std::max<std::size_t>(1, cache_shards)) {
  GRANITE_CHECK_GT(records_per_shard, 0u);
}

SampleView ShardedBlockSource::Get(std::size_t index) const {
  GRANITE_CHECK_LT(index, size());
  const std::size_t shard_index = index / records_per_shard_;
  ShardPtr shard;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const ShardPtr* hit = cache_.Get(shard_index)) {
      shard = *hit;
    } else {
      shard = std::make_shared<const std::vector<Sample>>(
          LoadShard(shard_index));
      ++shard_loads_;
      cache_.Put(shard_index, shard);
    }
  }
  const Sample& sample = (*shard)[index - shard_index * records_per_shard_];
  return SampleView{&sample.block, &sample.throughput, shard};
}

void ShardedBlockSource::KeepShard(std::size_t shard_index,
                                   std::vector<Sample> samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++shard_loads_;
  cache_.Put(shard_index, std::make_shared<const std::vector<Sample>>(
                              std::move(samples)));
}

std::size_t ShardedBlockSource::shard_loads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shard_loads_;
}

namespace {

/**
 * Compact open-addressing set of block fingerprints: ~16 bytes per entry
 * at worst (vs ~40+ for unordered_set), so deduplicating a million-block
 * synthesis stays far below one resident shard of samples.
 */
class FingerprintSet {
 public:
  FingerprintSet() : slots_(1024, kEmpty) {}

  /** Inserts `fingerprint`; returns true when it was not yet present. */
  bool Insert(uint64_t fingerprint) {
    if (fingerprint == kEmpty) {
      const bool fresh = !has_empty_key_;
      has_empty_key_ = true;
      return fresh;
    }
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    std::size_t slot = Probe(fingerprint);
    if (slots_[slot] == fingerprint) return false;
    slots_[slot] = fingerprint;
    ++count_;
    return true;
  }

 private:
  static constexpr uint64_t kEmpty = 0;

  /** First slot holding `fingerprint` or kEmpty, linear probing. */
  std::size_t Probe(uint64_t fingerprint) const {
    // Mix so low-entropy fingerprints spread across the table.
    uint64_t hash = fingerprint * 0x9E3779B97F4A7C15ull;
    std::size_t slot = hash & (slots_.size() - 1);
    while (slots_[slot] != kEmpty && slots_[slot] != fingerprint) {
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return slot;
  }

  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    for (const uint64_t fingerprint : old) {
      if (fingerprint != kEmpty) slots_[Probe(fingerprint)] = fingerprint;
    }
  }

  std::vector<uint64_t> slots_;
  std::size_t count_ = 0;
  bool has_empty_key_ = false;
};

/** Options that plan `num_blocks` samples as a single shard. */
StreamingSynthesisOptions OneShard(std::size_t num_blocks) {
  StreamingSynthesisOptions options;
  options.records_per_shard = std::max<std::size_t>(1, num_blocks);
  options.cache_shards = 1;
  return options;
}

/** Synthesis planned as a single shard, so materializing that shard
 * yields the whole dataset. */
class OneShardSynthesis : public StreamingSynthesisSource {
 public:
  explicit OneShardSynthesis(const SynthesisConfig& config)
      : StreamingSynthesisSource(config, OneShard(config.num_blocks)) {}

  std::vector<Sample> Materialize() const {
    return empty() ? std::vector<Sample>() : LoadShard(0);
  }
};

}  // namespace

StreamingSynthesisSource::StreamingSynthesisSource(
    const SynthesisConfig& config, const StreamingSynthesisOptions& options)
    : ShardedBlockSource(options.records_per_shard, options.cache_shards),
      config_(config),
      num_blocks_(config.num_blocks) {
  // Planning pass: run the generator and the dedup, but record only
  // (per-shard RNG snapshot, accept bits) instead of the samples.
  // Measurement is skipped here — labels are a pure function of the
  // block, computed at shard materialization.
  BlockGenerator generator(config_.generator, config_.seed);
  FingerprintSet fingerprints;
  std::size_t produced = 0;
  // Bounded retries so pathological configs (e.g. a single 1-instruction
  // family) terminate rather than spin.
  std::size_t attempts = 0;
  const std::size_t max_attempts = config_.num_blocks * 20 + 1000;
  while (produced < config_.num_blocks && attempts < max_attempts) {
    // The attempt that produces sample k belongs to shard k / shard_size;
    // rejected attempts in between go to the shard of the next accept.
    if (produced % records_per_shard() == 0 &&
        produced / records_per_shard() == plans_.size()) {
      plans_.push_back(ShardPlan{generator.rng(), {}});
    }
    ++attempts;
    const assembly::BasicBlock block = generator.Generate();
    const bool accepted =
        fingerprints.Insert(uarch::BlockFingerprint(block));
    plans_.back().accepted.push_back(accepted);
    if (accepted) ++produced;
  }
  GRANITE_CHECK_MSG(produced == config_.num_blocks,
                    "generator exhausted: produced "
                        << produced << " unique blocks of "
                        << config_.num_blocks << " requested");
}

std::vector<Sample> StreamingSynthesisSource::LoadShard(
    std::size_t shard_index) const {
  GRANITE_CHECK_LT(shard_index, plans_.size());
  const ShardPlan& plan = plans_[shard_index];
  BlockGenerator generator(config_.generator, plan.rng_state);
  std::vector<Sample> shard;
  shard.reserve(std::min(records_per_shard(),
                         num_blocks_ - shard_index * records_per_shard()));
  for (const bool accepted : plan.accepted) {
    Sample sample;
    sample.block = generator.Generate();
    if (!accepted) continue;
    sample.throughput = uarch::MeasureOnAllUarchs(sample.block, config_.tool);
    shard.push_back(std::move(sample));
  }
  return shard;
}

Dataset SynthesizeDataset(const SynthesisConfig& config) {
  return Dataset(OneShardSynthesis(config).Materialize());
}

Dataset RelabelDataset(const BlockSource& dataset,
                       uarch::MeasurementTool tool) {
  std::vector<Sample> samples;
  samples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const SampleView view = dataset.Get(i);
    samples.push_back(
        Sample{*view.block, uarch::MeasureOnAllUarchs(*view.block, tool)});
  }
  return Dataset(std::move(samples));
}

}  // namespace granite::dataset
