/**
 * @file
 * Beam search over transform compositions, scored by a served cost model.
 *
 * The compiler-in-the-loop workload the paper's model exists to enable:
 * a block optimizer enumerates candidate rewrites (autotune/transforms),
 * submits each wave of candidates asynchronously to a cost backend —
 * typically a serve::InferenceServer — and keeps the beam_width
 * best-scoring candidates for the next round of composition, up to
 * max_depth rounds or a wall-clock deadline.
 *
 * Deduplication contract: within one wave, candidates are deduplicated
 * by canonical block fingerprint (sibling beam entries derive the same
 * block often — commuting transform pairs). *Across* waves the search
 * deliberately resubmits previously seen blocks instead of memoizing
 * scores client-side: the server's prediction cache is the memoizer
 * (fingerprint-keyed, generation-checked), so repeated candidates are
 * served at cache-hit cost from the one cache every client of the model
 * shares — a client-side score map would duplicate it, and would keep
 * serving the old model's scores once the client's costs come from a
 * server on retrained weights. This resubmission is what produces the
 * high cache-hit-rate traffic the serving stack is built for.
 *
 * Threading: a BlockOptimizer instance is not thread-safe (use one per
 * thread); distinct instances may share one CostClient backed by a
 * server, whose submit paths are thread-safe. The provided
 * CostClient implementations are safe for concurrent SubmitWave calls.
 */
#ifndef GRANITE_AUTOTUNE_SEARCH_H_
#define GRANITE_AUTOTUNE_SEARCH_H_

#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "asm/instruction.h"
#include "serve/inference_server.h"
#include "uarch/throughput_model.h"

namespace granite::autotune {

/**
 * A scoring backend for candidate waves. Implementations are
 * thread-safe for concurrent SubmitWave calls. Submitted blocks must
 * stay alive until every returned future is ready; an empty optional
 * means the backend rejected that candidate (backpressure/shutdown).
 */
class CostClient {
 public:
  virtual ~CostClient() = default;

  /** Submits one wave of candidates; one future per block, in order. */
  virtual std::vector<std::optional<std::future<double>>> SubmitWave(
      const std::vector<const assembly::BasicBlock*>& blocks) = 0;
};

/** Scores candidates on one task head of an InferenceServer, enqueuing
 * each wave with a single batch submission (SubmitMany). Thread-safe. */
class ServerCostClient : public CostClient {
 public:
  /** @param server Must outlive the client. */
  ServerCostClient(serve::InferenceServer* server, int task);

  std::vector<std::optional<std::future<double>>> SubmitWave(
      const std::vector<const assembly::BasicBlock*>& blocks) override;

 private:
  serve::InferenceServer* server_;
  int task_;
};

/** Scores candidates with the analytical uarch::ThroughputModel oracle,
 * synchronously (futures are ready on return). Deterministic and
 * serverless — the baseline backend for tests and examples.
 * Thread-safe (the oracle is immutable). */
class AnalyticalCostClient : public CostClient {
 public:
  explicit AnalyticalCostClient(uarch::Microarchitecture microarchitecture);

  std::vector<std::optional<std::future<double>>> SubmitWave(
      const std::vector<const assembly::BasicBlock*>& blocks) override;

 private:
  uarch::ThroughputModel oracle_;
};

/** A candidate must beat the original by this fraction of the
 * original's magnitude to be adopted — guards against swapping spellings
 * over float noise, whatever the sign of the cost. */
inline constexpr double kMinRelativeGain = 1e-4;

/** Search knobs of a BlockOptimizer. */
struct SearchConfig {
  /** Candidates kept per round; 1 degenerates to greedy search. */
  int beam_width = 4;
  /** Transform-composition rounds (rewrites the result may stack). */
  int max_depth = 5;
  /** Wall-clock budget for one Optimize() call; zero = unlimited. The
   * deadline is checked between waves, so one in-flight wave may
   * overshoot it by its service latency. */
  std::chrono::microseconds deadline{0};
};

/** Outcome of optimizing one block. */
struct OptimizeResult {
  /** The winning block: the best-scoring candidate when `improved`,
   * otherwise the original. */
  assembly::BasicBlock best;
  /** False when the backend rejected the original block's scoring
   * request (nothing was searched). */
  bool scored = false;
  /** True when `best` beat the original by kMinRelativeGain. */
  bool improved = false;
  double original_cost = 0.0;
  double best_cost = 0.0;
  /** original_cost / best_cost (1.0 when not improved or when either
   * cost is not positive). */
  double predicted_speedup = 1.0;
  /** Rule names along the winning composition path, in order. */
  std::vector<std::string> applied;
  /** Candidates enumerated over all waves (pre-dedup). */
  std::size_t candidates_generated = 0;
  /** Candidates whose score arrived (successful future). */
  std::size_t candidates_scored = 0;
  /** In-wave duplicates skipped by fingerprint. */
  std::size_t duplicates_skipped = 0;
  /** Submissions rejected by the backend plus futures that threw
   * (failed batches, unencodable blocks). */
  std::size_t rejected = 0;
  /** Waves actually searched (≤ max_depth). */
  int depth_reached = 0;
  /** True when the deadline cut the search short. */
  bool deadline_hit = false;
};

/**
 * The search driver: repeatedly expands the current beam with every
 * single-step rewrite from the transform catalog, scores the wave
 * through the CostClient, and keeps the best candidates. Not
 * thread-safe; create one per searching thread (instances are cheap —
 * all heavy state lives in the backend).
 */
class BlockOptimizer {
 public:
  /** @param client Must outlive the optimizer. */
  BlockOptimizer(CostClient* client, const SearchConfig& config);

  /** Runs the beam search for `block` and reports the outcome. */
  OptimizeResult Optimize(const assembly::BasicBlock& block);

 private:
  CostClient* client_;
  SearchConfig config_;
};

}  // namespace granite::autotune

#endif  // GRANITE_AUTOTUNE_SEARCH_H_
