/**
 * @file
 * The unified throughput-estimator interface.
 *
 * The paper evaluates a family of estimators (GRANITE, Ithemal, Ithemal+,
 * multi-task variants) over the same block corpora; this interface is the
 * seam that lets every layer above the models — the Trainer, the
 * InferenceServer, the ModelRouter, the checkpoint bundles and the CLI —
 * drive any member of that family without knowing which one it holds.
 *
 * The base class owns every inference path. No-grad inference
 * (ComputeBatchAllTasks, Predict) runs ForwardGraphsOrBlocks on a
 * no-grad tape of the backend the model passed at construction.
 * PredictBatchAllTasks adds canonical-fingerprint deduplication and a
 * self-versioning LRU prediction cache (versioned on the ParameterStore
 * generation counter, so training steps and checkpoint loads invalidate
 * it automatically). A concrete model states only its architecture: the
 * forward pass, its parameters and its config; model/config_io.h holds
 * each config's field list, text codec and bounds.
 */
#ifndef GRANITE_MODEL_THROUGHPUT_PREDICTOR_H_
#define GRANITE_MODEL_THROUGHPUT_PREDICTOR_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asm/instruction.h"
#include "base/lru_cache.h"
#include "graph/batch.h"
#include "graph/vocabulary.h"
#include "ml/parameter.h"
#include "ml/tape.h"

namespace granite::model {

/** Identifies a concrete model family in checkpoint bundles and logs. */
enum class ModelKind {
  /** core::GraniteModel (graph network, paper §3). */
  kGranite,
  /** ithemal::IthemalModel (two-level LSTM, §2.2/§4; the config decides
   * between the vanilla dot-product decoder and the Ithemal+ MLP). */
  kIthemal,
};

/** Stable lowercase identifier, e.g. "granite"; used in bundle files. */
std::string_view ModelKindName(ModelKind kind);

/** Inverse of ModelKindName; empty for unknown names. */
std::optional<ModelKind> ModelKindFromName(std::string_view name);

/**
 * A trained (or trainable) basic-block throughput estimator with one
 * prediction head per task (target microarchitecture).
 *
 * Thread-safety: the inference entry points (Predict, PredictBatch,
 * PredictBatchAllTasks) are safe to call concurrently; forward passes
 * never run under the cache lock. ForwardGraphsOrBlocks records onto a
 * caller-owned tape and is safe as long as each thread uses its own tape.
 */
class ThroughputPredictor {
 public:
  virtual ~ThroughputPredictor() = default;

  /**
   * Runs the model on a batch, recording onto `tape`, and returns one
   * [num_blocks, 1] prediction column per task. Exactly one of `blocks`
   * and `graph` must be non-null: models whose SupportsGraphEncoding()
   * is true accept a pre-encoded batched graph (letting the training
   * pipeline move graph construction off the training thread); every
   * model accepts raw blocks.
   */
  virtual std::vector<ml::Var> ForwardGraphsOrBlocks(
      ml::Tape& tape,
      const std::vector<const assembly::BasicBlock*>* blocks,
      const graph::BatchedGraph* graph) const = 0;

  /** Convenience inference: column `task` of ComputeBatchAllTasks(blocks),
   * uncached. */
  virtual std::vector<double> Predict(
      const std::vector<const assembly::BasicBlock*>& blocks,
      int task) const;

  /**
   * Batched inference with deduplication and prediction caching. Blocks
   * whose canonical fingerprint is in the LRU cache are answered without
   * a forward pass; the remaining distinct blocks run through one
   * ComputeBatchAllTasks call (all task heads at once) and populate the
   * cache. Entry i of the result holds num_tasks() predictions for
   * blocks[i]. Without EnablePredictionCache() this degrades to a plain
   * batched forward pass.
   *
   * A hit is never older than the parameter generation the call read
   * on entry: entries from an older generation are cleared before the
   * lookups, and the results of a forward pass that overlapped a
   * generation bump are not inserted. (A caller that read an older
   * generation than the cache's may be served the newer entries.)
   *
   * Thread-safety: safe to call concurrently. One mutex guards the
   * cache; each call takes it once for all of its lookups and once for
   * all of its inserts, never across fingerprinting or the forward pass.
   */
  std::vector<std::vector<double>> PredictBatchAllTasks(
      const std::vector<const assembly::BasicBlock*>& blocks) const;

  /**
   * PredictBatchAllTasks(blocks) with the cache keys supplied by a caller
   * that already fingerprinted the blocks (the inference server computes
   * each request's key once, at submit). keys.size() must equal
   * blocks.size() (checked), and keys[i] must equal
   * uarch::BlockFingerprint(*blocks[i]) (a precondition, not checked: a
   * wrong key serves or caches another block's predictions). The one-argument overload computes the
   * keys and calls this one, so both share one cache path and return
   * the same bits.
   */
  std::vector<std::vector<double>> PredictBatchAllTasks(
      const std::vector<const assembly::BasicBlock*>& blocks,
      const std::vector<uint64_t>& keys) const;

  /** One task head's column of PredictBatchAllTasks:
   * PredictBatch(blocks, task)[i] == PredictBatchAllTasks(blocks)[i][task]
   * bit-for-bit. Thread-safe. */
  std::vector<double> PredictBatch(
      const std::vector<const assembly::BasicBlock*>& blocks,
      int task) const;

  /**
   * Sizes the PredictBatch LRU cache to `capacity` unique blocks and
   * clears it; 0 disables caching. The cache versions itself on the
   * parameter store's generation counter, so training steps, checkpoint
   * loads and snapshot restores invalidate it automatically. The
   * hit/miss counters start over. Thread-safe; an in-flight PredictBatch
   * call inserts its results into the new cache.
   */
  void EnablePredictionCache(std::size_t capacity);

  /** Lifetime PredictBatch() cache hit / miss counters. */
  std::size_t prediction_cache_hits() const;
  std::size_t prediction_cache_misses() const;

  /** Number of prediction heads (target microarchitectures). */
  virtual int num_tasks() const = 0;

  /** The model's trainable parameters. */
  virtual ml::ParameterStore& parameters() = 0;
  virtual const ml::ParameterStore& parameters() const = 0;

  /** The token vocabulary the model was built against. */
  virtual const graph::Vocabulary& vocabulary() const = 0;

  /** The concrete model family (for bundles, routers, logs). */
  virtual ModelKind kind() const = 0;

  /**
   * The model's hyper-parameters as the canonical key=value text written
   * into checkpoint bundles; parsing it back and constructing a model of
   * kind() over the same vocabulary reproduces this model's architecture
   * exactly (see model::LoadModel).
   */
  virtual std::string DescribeConfig() const = 0;

  /** True when the model supports pre-encoded-graph batching, i.e.
   * EncodeBlocks() and the `graph` input of ForwardGraphsOrBlocks. */
  virtual bool SupportsGraphEncoding() const { return false; }

  /** Encodes blocks into a batched graph (SupportsGraphEncoding only). */
  virtual graph::BatchedGraph EncodeBlocks(
      const std::vector<const assembly::BasicBlock*>& blocks) const;

 protected:
  /**
   * @param backend Executes the tapes the inference paths create;
   *     nullptr means the process default at each tape's creation.
   */
  explicit ThroughputPredictor(const ml::KernelBackend* backend = nullptr)
      : backend_(backend) {}

  /** The backend of internally created tapes (nullptr: the default). */
  const ml::KernelBackend* backend() const { return backend_; }

  /**
   * Uncached batched forward pass evaluating every task head: entry i of
   * the result holds num_tasks() predictions for blocks[i]. The default
   * runs ForwardGraphsOrBlocks on a private no-grad tape. Called by
   * PredictBatchAllTasks outside the cache lock, possibly from several
   * threads at once; overrides must record onto a private tape.
   */
  virtual std::vector<std::vector<double>> ComputeBatchAllTasks(
      const std::vector<const assembly::BasicBlock*>& blocks) const;

 private:
  const ml::KernelBackend* backend_;
  /** Guards prediction_cache_ and cache_generation_. Mutable because
   * inference is const. */
  mutable std::mutex cache_mutex_;
  /** Predictions of every task head by block fingerprint; capacity 0
   * (the default) disables caching. */
  mutable base::LruCache<uint64_t, std::vector<double>> prediction_cache_{0};
  /** The parameter generation the resident entries were computed at. */
  mutable uint64_t cache_generation_ = 0;
};

}  // namespace granite::model

#endif  // GRANITE_MODEL_THROUGHPUT_PREDICTOR_H_
