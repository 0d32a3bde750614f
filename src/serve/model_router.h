/**
 * @file
 * Multi-model serving router with canary routing policies.
 *
 * Hosts several named ThroughputPredictors — typically loaded from
 * checkpoint bundles (model::LoadModel) — behind one submit API. Each
 * model gets its own InferenceServer (own request queues, batching
 * window, workers and stats), so traffic for one model never blocks
 * another and per-model per-task statistics stay separable; the router
 * is the thin name → server indirection on top. The routes are fixed
 * when the router is constructed (RouterSetup), and a setup the router
 * cannot serve is refused with a RouterSetupError before any server
 * starts.
 *
 * Routing policies, the canary workflow of a real fleet:
 *
 * - Weighted A/B splits (SplitRoute): a split name routes each request
 *   to one of two models, chosen deterministically from the block's
 *   canonical fingerprint — the same block always goes to the same arm,
 *   so per-arm predictions stay bit-identical to direct serving and an
 *   experiment is reproducible across runs.
 *
 * - Shadow traffic (ModelRoute::candidate): requests served by a
 *   route's active model are also mirrored to a candidate model served
 *   by its own server, up to the session's min_comparisons. The
 *   candidate's predictions are compared against the active model's but
 *   NEVER returned to clients; a candidate that rejects mirrored traffic
 *   (overload) or crashes a batch only shows up in the shadow
 *   statistics. Pairs are compared in submission order, by whichever
 *   Submit or ShadowStatus call finds the oldest pair's two predictions
 *   both ready (Shutdown compares the rest), so a session runs no thread
 *   of its own. Once enough comparisons accumulate, the session reaches
 *   a verdict: parity (equal predictions on every compared request)
 *   promotes the candidate — atomically swapping it in as the route's
 *   active model when auto_promote is set, otherwise only reporting the
 *   verdict — and anything else rejects it. A session runs once per
 *   router.
 *
 * Thread-safety: all public methods are safe to call concurrently. The
 * route maps never change after construction; the submit path reads
 * the active server via an atomic and takes no router-wide lock, only
 * the route's session lock while it shadows.
 */
#ifndef GRANITE_SERVE_MODEL_ROUTER_H_
#define GRANITE_SERVE_MODEL_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "model/throughput_predictor.h"
#include "serve/inference_server.h"

namespace granite::serve {

/** Raised by the ModelRouter constructor for a RouterSetup it cannot
 * serve; the message names the offending route, split or count. */
class RouterSetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/** Lifecycle of a route's shadow (canary) session. */
enum class CanaryState {
  /** Mirroring traffic to the candidate, accumulating comparisons. */
  kShadowing,
  /** Verdict: candidate at parity; it is the active model when the
   * session's auto_promote was set, otherwise the active model is
   * unchanged. */
  kPromoted,
  /** Verdict: candidate diverged; mirroring stopped, active model kept. */
  kRejected,
};

/** Stable lowercase name of a canary state, e.g. "shadowing". */
std::string_view CanaryStateName(CanaryState state);

/** Configuration of a route's shadow session (ModelRoute::shadow). */
struct ShadowConfig {
  /** Comparisons to accumulate before the parity verdict. Mirroring
   * stops there too: at most min_comparisons + compare_failures
   * requests are mirrored to the candidate. The verdict
   * promotes only when every compared pair is at parity, i.e. the two
   * predictions are equal — the right bar when the candidate is the
   * same architecture retrained or re-exported (serving is
   * deterministic per model). */
  std::uint64_t min_comparisons = 100;
  /** Swap the candidate in as the active model on a parity verdict.
   * When false, the verdict is reported (kPromoted) and the candidate
   * is never swapped in. */
  bool auto_promote = true;
  /** Server configuration for the candidate's own InferenceServer. Its
   * overflow policy is forced to kReject: a saturated candidate rejects
   * mirrored traffic (counted in mirror_rejects) instead of ever
   * blocking the client submit path. */
  InferenceServerConfig server_config;
};

/** One model route of a RouterSetup. The defaults (here and in
 * RouterSetup) let a brace initializer leave the trailing members out
 * without a -Wmissing-field-initializers warning. */
struct ModelRoute {
  /** The route name; unique among models and splits. */
  std::string name;
  std::unique_ptr<model::ThroughputPredictor> model;
  /** The shadow session's candidate, or null for a route without one. */
  std::unique_ptr<model::ThroughputPredictor> candidate = nullptr;
  /** The shadow session's settings; read only when candidate is set. */
  ShadowConfig shadow = {};
};

/**
 * One weighted A/B split of a RouterSetup: a request for `name` goes to
 * model route `route_a` with probability `weight_a` (and to `route_b`
 * otherwise), chosen deterministically from the block fingerprint.
 * Splits may only target models, not other splits.
 */
struct SplitRoute {
  std::string name;
  std::string route_a;
  std::string route_b;
  double weight_a = 0.5;
};

/** Everything a ModelRouter serves, fixed at construction. */
struct RouterSetup {
  /** Server configuration of every model route's InferenceServer. */
  InferenceServerConfig server_config = {};
  std::vector<ModelRoute> models = {};
  std::vector<SplitRoute> splits = {};
};

/**
 * The route-name rules of a RouterSetup: model route names unique,
 * split names unique and unlike any model route's, split weights in
 * [0, 1] (NaN refused) and split arms naming model routes. Reads only
 * names, arms and weights, so a caller can run it before it loads the
 * models (their pointers still null). Throws a RouterSetupError naming
 * the first violation. The ModelRouter constructor runs it first.
 */
void CheckRouteNames(const RouterSetup& setup);

/** Point-in-time statistics of a route's shadow session. */
struct ShadowStats {
  CanaryState state = CanaryState::kShadowing;
  /** Requests mirrored to (accepted by) the candidate server. */
  std::uint64_t mirrored = 0;
  /** Mirror submissions the candidate rejected (its queue was full);
   * the client still got the primary answer — isolation holds. */
  std::uint64_t mirror_rejects = 0;
  /** Prediction pairs compared so far. */
  std::uint64_t compared = 0;
  /** Compared pairs whose predictions are equal. */
  std::uint64_t parity = 0;
  /** Pairs where either side's future threw (failed batch);
   * excluded from `compared`. */
  std::uint64_t compare_failures = 0;
  /** Largest relative difference seen, |primary - candidate| /
   * max(|primary|, |candidate|, 1e-12), over compared pairs; +inf once
   * a pair had a non-finite value on either side. */
  double max_rel_diff = 0.0;
  /** Mean |primary - candidate| over compared pairs (+inf likewise). */
  double mean_abs_diff = 0.0;
};

/** Point-in-time statistics of a weighted A/B split. */
struct SplitStats {
  std::string route_a;
  std::string route_b;
  /** Probability mass of arm A under fingerprint hashing, in [0, 1]. */
  double weight_a = 0.5;
  /** Requests routed to each arm so far. */
  std::uint64_t to_a = 0;
  std::uint64_t to_b = 0;
};

/**
 * Routes block-throughput requests to named models, each served by its
 * own InferenceServer, with A/B-split and shadow-canary policies.
 *
 * Thread-safety: all public methods are safe to call from any number
 * of threads concurrently; see the file comment for how the submit
 * path avoids router-wide locks.
 */
class ModelRouter {
 public:
  /**
   * Checks `setup` — the route names (CheckRouteNames), then every
   * model set, shadow min_comparisons at least 1 and a shadow candidate
   * with its route's task count — and throws a RouterSetupError on the
   * first violation, before any server starts.
   * Then starts a server per model route and per shadow candidate. The
   * router owns every model.
   */
  explicit ModelRouter(RouterSetup setup);

  /** Shuts down every hosted server. */
  ~ModelRouter();

  ModelRouter(const ModelRouter&) = delete;
  ModelRouter& operator=(const ModelRouter&) = delete;

  /** The route's shadow statistics, after comparing every pending pair
   * whose predictions are ready, or an empty optional when it has no
   * shadow session. Fails on an unknown model name. Thread-safe. */
  std::optional<ShadowStats> ShadowStatus(const std::string& name) const;

  /** The split's routing statistics, or an empty optional when `name`
   * is not a split. Thread-safe. */
  std::optional<SplitStats> SplitStatus(const std::string& name) const;

  /**
   * Enqueues one prediction request on the named route — a model (its
   * active server, mirrored to the shadow candidate while the session
   * has mirror slots left, then comparing the session's ready pairs) or
   * an A/B split (resolved by block fingerprint). Returns an empty
   * optional when `name` is unknown (counted in
   * unknown_model_requests()) or when the serving server rejects the
   * request (backpressure/shutdown). Thread-safe.
   */
  std::optional<std::future<double>> Submit(const std::string& name,
                                            const assembly::BasicBlock* block,
                                            int task);

  /** The named model route's live server stats (of its active server).
   * Fails on an unknown name. Thread-safe. */
  ServerStats Stats(const std::string& name) const;

  /** The route's currently active model (e.g. for reading cache
   * counters, or for observing a canary promotion). Fails on an
   * unknown name. Thread-safe. */
  const model::ThroughputPredictor& Model(const std::string& name) const;

  /** Submissions turned away because the route name was unknown. */
  std::uint64_t unknown_model_requests() const {
    return unknown_model_requests_.load(std::memory_order_relaxed);
  }

  /** Per-model stats blocks (FormatServerStats) for every hosted model
   * plus split/shadow status lines and the router-level unknown-name
   * counter. Thread-safe. */
  std::string StatsString() const;

  /** Shuts down every hosted server — primaries and shadow candidates —
   * then compares every pending pair, all answered by then
   * (idempotent); subsequent submissions are rejected. Thread-safe. */
  void Shutdown();

 private:
  /** A primary/candidate prediction pair awaiting comparison. The
   * client's answer is an independent copy of the primary
   * shared_future, so a slow or stuck candidate can never delay it. */
  struct PendingComparison {
    std::shared_future<double> primary;
    std::future<double> candidate;
  };

  /**
   * A route's shadow session. `mutex` guards every field below it.
   * `state` changes only under `mutex` too, but is an atomic so the
   * submit path can skip the lock once the verdict is in.
   */
  struct ShadowSession {
    ShadowConfig config;
    std::unique_ptr<model::ThroughputPredictor> candidate;
    std::unique_ptr<InferenceServer> candidate_server;

    std::atomic<CanaryState> state{CanaryState::kShadowing};

    std::mutex mutex;
    /** Mirrors Submit may still start: min_comparisons at first, one
     * back for each compare failure. */
    std::uint64_t mirror_slots = 0;
    std::uint64_t mirrored = 0;
    std::uint64_t mirror_rejects = 0;
    /** Mirrored pairs in submission order, compared from the front. */
    std::deque<PendingComparison> pending;
    /** Comparison stats. */
    std::uint64_t compared = 0;
    std::uint64_t parity = 0;
    std::uint64_t compare_failures = 0;
    double max_rel_diff = 0.0;
    double sum_abs_diff = 0.0;
  };

  /**
   * One hosted model route. The active server is an atomic so a canary
   * promotion swaps it to the candidate's without locking the submit
   * path, and mutable because a const ShadowStatus call can reach the
   * verdict; the route's own server stays alive until router teardown,
   * so requests already queued on it always complete. Here and in
   * ShadowSession each server is declared after its model, so it is
   * destroyed first.
   */
  struct Entry {
    std::unique_ptr<model::ThroughputPredictor> model;
    std::unique_ptr<InferenceServer> server;
    mutable std::atomic<InferenceServer*> active_server{nullptr};
    /** Null for a route without a shadow session. */
    std::unique_ptr<ShadowSession> shadow;
  };

  /** One weighted A/B split. */
  struct Split {
    std::string route_a;
    std::string route_b;
    double weight_a = 0.5;
    std::atomic<std::uint64_t> to_a{0};
    std::atomic<std::uint64_t> to_b{0};
  };

  /** Returns the entry for `name`, or null. */
  const Entry* FindEntry(const std::string& name) const;

  /** The split arm (model name) for `block`: deterministic on the
   * block's canonical fingerprint. Also bumps the arm counter. */
  static const std::string& ResolveSplit(Split& split,
                                         const assembly::BasicBlock& block);

  /** Compares pending pairs from the front while both predictions of
   * the front pair are ready, accumulating the parity statistics and
   * deciding the verdict. The caller holds session.mutex. */
  static void FoldReady(const Entry& entry, ShadowSession& session);

  /** Model routes and splits by name; neither map changes after
   * construction. Entries hold atomics, so they are built in place. */
  std::map<std::string, Entry> routes_;
  std::map<std::string, Split> splits_;
  std::atomic<std::uint64_t> unknown_model_requests_{0};
  /** Shutdown's work runs once; a concurrent caller waits for it. */
  std::once_flag shutdown_once_;
};

}  // namespace granite::serve

#endif  // GRANITE_SERVE_MODEL_ROUTER_H_
