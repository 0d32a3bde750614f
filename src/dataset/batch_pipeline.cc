#include "dataset/batch_pipeline.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "base/logging.h"
#include "base/thread_pool.h"

namespace granite::dataset {

PreparedBatch PrepareBatch(const BlockSource& source,
                           std::vector<std::size_t> indices, int num_shards,
                           const EncodeFn& encode) {
  GRANITE_CHECK_GE(num_shards, 1);
  PreparedBatch batch;
  batch.indices = std::move(indices);
  batch.blocks.reserve(batch.indices.size());
  batch.throughputs.reserve(batch.indices.size());
  for (const std::size_t index : batch.indices) {
    SampleView view = source.Get(index);
    batch.blocks.push_back(view.block);
    batch.throughputs.push_back(*view.throughput);
    if (view.pin != nullptr) batch.pins.push_back(std::move(view.pin));
  }
  // Random sampling revisits the same shard many times per batch; one
  // pin per distinct shard suffices to keep every block alive.
  std::sort(batch.pins.begin(), batch.pins.end());
  batch.pins.erase(std::unique(batch.pins.begin(), batch.pins.end()),
                   batch.pins.end());
  const auto ranges =
      base::ThreadPool::PartitionRange(batch.blocks.size(), num_shards);
  for (const auto& [begin, end] : ranges) {
    if (begin == end) continue;
    PreparedBatch::Shard shard;
    shard.begin = begin;
    shard.end = end;
    if (encode) {
      const std::vector<const assembly::BasicBlock*> shard_blocks(
          batch.blocks.begin() + static_cast<std::ptrdiff_t>(begin),
          batch.blocks.begin() + static_cast<std::ptrdiff_t>(end));
      shard.graph = encode(shard_blocks);
      shard.has_graph = true;
    }
    batch.shards.push_back(std::move(shard));
  }
  return batch;
}

namespace {

/** Null-checks `source` before the constructor's initializer list uses
 * it. */
std::size_t CheckedSize(const BlockSource* source) {
  GRANITE_CHECK(source != nullptr);
  GRANITE_CHECK(!source->empty());
  return source->size();
}

}  // namespace

PrefetchingBatchPipeline::PrefetchingBatchPipeline(const BlockSource* source,
                                                   std::size_t batch_size,
                                                   int num_shards,
                                                   uint64_t seed,
                                                   EncodeFn encode)
    : source_(source),
      num_shards_(num_shards),
      encode_(std::move(encode)),
      sampler_(CheckedSize(source), batch_size, seed) {
  GRANITE_CHECK_GE(num_shards, 1);
  producer_ = std::thread([this] { ProducerLoop(); });
}

PrefetchingBatchPipeline::~PrefetchingBatchPipeline() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  slot_emptied_.notify_all();
  producer_.join();
}

void PrefetchingBatchPipeline::ProducerLoop() {
  for (;;) {
    // Sampling and encoding run outside the lock; the sampler is only
    // ever touched by this thread. A failure (say, a CorpusError from a
    // streaming source's Get) is handed to Next() and ends production.
    std::optional<PreparedBatch> batch;
    std::exception_ptr error;
    try {
      batch =
          PrepareBatch(*source_, sampler_.NextBatch(), num_shards_, encode_);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    slot_emptied_.wait(lock, [this] { return stop_ || !slot_.has_value(); });
    if (stop_) return;
    if (error != nullptr) {
      error_ = error;
      slot_filled_.notify_all();
      return;
    }
    slot_ = std::move(batch);
    slot_filled_.notify_all();
  }
}

PreparedBatch PrefetchingBatchPipeline::Next() {
  std::unique_lock<std::mutex> lock(mutex_);
  slot_filled_.wait(lock,
                    [this] { return slot_.has_value() || error_ != nullptr; });
  if (!slot_.has_value()) std::rethrow_exception(error_);
  PreparedBatch batch = std::move(*slot_);
  slot_.reset();
  slot_emptied_.notify_all();
  return batch;
}

}  // namespace granite::dataset
