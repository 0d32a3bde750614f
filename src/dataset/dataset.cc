#include "dataset/dataset.h"

#include "base/logging.h"

namespace granite::dataset {

std::vector<double> BlockSource::Throughputs(
    uarch::Microarchitecture uarch) const {
  std::vector<double> values;
  values.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    values.push_back((*Get(i).throughput)[static_cast<int>(uarch)]);
  }
  return values;
}

IndexSplit SplitIndices(std::size_t size, double first_fraction,
                        uint64_t seed) {
  GRANITE_CHECK_GT(first_fraction, 0.0);
  GRANITE_CHECK_LT(first_fraction, 1.0);
  Rng rng(seed);
  std::vector<std::size_t> order = rng.Permutation(size);
  const std::size_t first_count = static_cast<std::size_t>(
      first_fraction * static_cast<double>(size));
  IndexSplit split;
  split.first.assign(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(first_count));
  split.second.assign(order.begin() + static_cast<std::ptrdiff_t>(first_count),
                      order.end());
  return split;
}

Dataset::Dataset(std::vector<Sample> samples)
    : samples_(std::move(samples)) {}

const Sample& Dataset::operator[](std::size_t index) const {
  GRANITE_CHECK_LT(index, samples_.size());
  return samples_[index];
}

SampleView Dataset::Get(std::size_t index) const {
  const Sample& sample = (*this)[index];
  return SampleView{&sample.block, &sample.throughput, nullptr};
}

std::vector<const assembly::BasicBlock*> Dataset::Blocks() const {
  std::vector<const assembly::BasicBlock*> blocks;
  blocks.reserve(samples_.size());
  for (const Sample& sample : samples_) blocks.push_back(&sample.block);
  return blocks;
}

BatchSampler::BatchSampler(std::size_t dataset_size, std::size_t batch_size,
                           uint64_t seed)
    : dataset_size_(dataset_size), batch_size_(batch_size), rng_(seed) {
  GRANITE_CHECK_GT(dataset_size, 0u);
  GRANITE_CHECK_GT(batch_size, 0u);
  Reshuffle();
}

void BatchSampler::Reshuffle() {
  order_ = rng_.Permutation(dataset_size_);
  cursor_ = 0;
}

std::vector<std::size_t> BatchSampler::NextBatch() {
  std::vector<std::size_t> batch;
  batch.reserve(batch_size_);
  while (batch.size() < batch_size_) {
    if (cursor_ >= order_.size()) Reshuffle();
    batch.push_back(order_[cursor_++]);
  }
  return batch;
}

}  // namespace granite::dataset
