#include "model/throughput_predictor.h"

#include <unordered_map>
#include <utility>

#include "base/logging.h"
#include "uarch/measurement.h"

namespace granite::model {
namespace {

/** Entry `task` of every block's all-task predictions. */
std::vector<double> TaskColumn(
    const std::vector<std::vector<double>>& per_block, int task) {
  std::vector<double> column(per_block.size());
  for (std::size_t i = 0; i < per_block.size(); ++i) {
    column[i] = per_block[i][task];
  }
  return column;
}

}  // namespace

std::string_view ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGranite:
      return "granite";
    case ModelKind::kIthemal:
      return "ithemal";
  }
  GRANITE_PANIC("unhandled ModelKind " << static_cast<int>(kind));
}

std::optional<ModelKind> ModelKindFromName(std::string_view name) {
  if (name == "granite") return ModelKind::kGranite;
  if (name == "ithemal") return ModelKind::kIthemal;
  return std::nullopt;
}

graph::BatchedGraph ThroughputPredictor::EncodeBlocks(
    const std::vector<const assembly::BasicBlock*>& blocks) const {
  (void)blocks;
  GRANITE_PANIC("EncodeBlocks called on a model without graph encoding ("
                << ModelKindName(kind()) << ")");
}

void ThroughputPredictor::EnablePredictionCache(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  prediction_cache_ = base::LruCache<uint64_t, std::vector<double>>(capacity);
}

std::size_t ThroughputPredictor::prediction_cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return prediction_cache_.hits();
}

std::size_t ThroughputPredictor::prediction_cache_misses() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return prediction_cache_.misses();
}

std::vector<std::vector<double>> ThroughputPredictor::ComputeBatchAllTasks(
    const std::vector<const assembly::BasicBlock*>& blocks) const {
  ml::Tape tape(backend_, ml::GradMode::kNone);
  const std::vector<ml::Var> predictions =
      ForwardGraphsOrBlocks(tape, &blocks, nullptr);
  std::vector<std::vector<double>> result(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    result[i].reserve(predictions.size());
    for (const ml::Var head : predictions) {
      result[i].push_back(tape.value(head).at(static_cast<int>(i), 0));
    }
  }
  return result;
}

std::vector<double> ThroughputPredictor::Predict(
    const std::vector<const assembly::BasicBlock*>& blocks, int task) const {
  GRANITE_CHECK(task >= 0 && task < num_tasks());
  return TaskColumn(ComputeBatchAllTasks(blocks), task);
}

std::vector<double> ThroughputPredictor::PredictBatch(
    const std::vector<const assembly::BasicBlock*>& blocks, int task) const {
  GRANITE_CHECK(task >= 0 && task < num_tasks());
  return TaskColumn(PredictBatchAllTasks(blocks), task);
}

std::vector<std::vector<double>> ThroughputPredictor::PredictBatchAllTasks(
    const std::vector<const assembly::BasicBlock*>& blocks) const {
  std::vector<uint64_t> keys(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    GRANITE_CHECK(blocks[i] != nullptr);
    keys[i] = uarch::BlockFingerprint(*blocks[i]);
  }
  return PredictBatchAllTasks(blocks, keys);
}

std::vector<std::vector<double>> ThroughputPredictor::PredictBatchAllTasks(
    const std::vector<const assembly::BasicBlock*>& blocks,
    const std::vector<uint64_t>& keys) const {
  GRANITE_CHECK_EQ(keys.size(), blocks.size());
  if (blocks.empty()) return {};
  bool caching;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    caching = prediction_cache_.capacity() > 0;
  }
  // Forward passes never run under the cache lock, so concurrent
  // PredictBatch callers are never serialized on the model.
  if (!caching) return ComputeBatchAllTasks(blocks);

  // Entries computed at an older parameter generation than `generation`
  // are stale: drop them all. Requires cache_mutex_.
  const auto roll_forward = [this](uint64_t generation) {
    if (generation > cache_generation_) {
      prediction_cache_.Clear();
      cache_generation_ = generation;
    }
  };

  std::vector<std::vector<double>> result(blocks.size());
  // Distinct fingerprint → block indices that need a forward pass.
  std::unordered_map<uint64_t, std::vector<std::size_t>> misses;
  std::vector<uint64_t> miss_order;
  // The parameter generation the forward pass below computes under.
  uint64_t forward_generation;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    forward_generation = parameters().generation();
    roll_forward(forward_generation);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (const std::vector<double>* cached = prediction_cache_.Get(keys[i])) {
        result[i] = *cached;
        continue;
      }
      auto [it, inserted] = misses.try_emplace(keys[i]);
      if (inserted) miss_order.push_back(keys[i]);
      it->second.push_back(i);
    }
  }
  if (miss_order.empty()) return result;

  // One deduplicated forward pass over the missing blocks, evaluating
  // every task head: the decoder heads are a sliver of the trunk cost,
  // so caching all tasks at once makes later PredictBatch(…, other_task)
  // calls hits too.
  std::vector<const assembly::BasicBlock*> miss_blocks;
  miss_blocks.reserve(miss_order.size());
  for (const uint64_t key : miss_order) {
    miss_blocks.push_back(blocks[misses.at(key).front()]);
  }
  std::vector<std::vector<double>> computed =
      ComputeBatchAllTasks(miss_blocks);
  for (std::size_t j = 0; j < miss_order.size(); ++j) {
    for (const std::size_t i : misses.at(miss_order[j])) {
      result[i] = computed[j];
    }
  }

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A generation bump during the forward pass (seen here, or already
  // applied by another caller) makes these results stale: they are not
  // inserted, so a prediction from old parameters is never served after
  // an update.
  roll_forward(parameters().generation());
  if (forward_generation < cache_generation_) return result;
  for (std::size_t j = 0; j < miss_order.size(); ++j) {
    prediction_cache_.Put(miss_order[j], std::move(computed[j]));
  }
  return result;
}

}  // namespace granite::model
