/**
 * @file
 * Multi-model serving router with canary routing policies.
 *
 * Hosts several named ThroughputPredictors — typically loaded from
 * checkpoint bundles (model::LoadModel) — behind one submit API. Each
 * model gets its own InferenceServer (own request queues, batching
 * window, workers and stats), so traffic for one model never blocks
 * another and per-model per-task statistics stay separable; the router
 * is the thin name → server indirection on top. Models can be added
 * while traffic flows.
 *
 * Routing policies, the canary workflow of a real fleet:
 *
 * - Weighted A/B splits (AddSplit): a split name routes each request to
 *   one of two models, chosen deterministically from the block's
 *   canonical fingerprint — the same block always goes to the same arm,
 *   so per-arm predictions stay bit-identical to direct serving and an
 *   experiment is reproducible across runs.
 *
 * - Shadow traffic (StartShadow): every request served by a route's
 *   active model is also mirrored to a candidate model served by its
 *   own server. The candidate's predictions are compared against the
 *   active model's but NEVER returned to clients; a candidate that
 *   rejects mirrored traffic (overload) or crashes a batch only shows
 *   up in the shadow statistics. Once enough comparisons accumulate,
 *   the session reaches a verdict: parity (equal predictions on every
 *   compared request) promotes the candidate — atomically swapping it
 *   in as the route's active model when auto_promote is set, otherwise
 *   only reporting the verdict — and anything else rejects it. Either
 *   verdict ends the mirror.
 *
 * Thread-safety: all public methods are safe to call concurrently. The
 * submit hot path reads the route map under a shared lock and the
 * active-model/shadow state via atomics; it takes no router-wide
 * exclusive lock.
 */
#ifndef GRANITE_SERVE_MODEL_ROUTER_H_
#define GRANITE_SERVE_MODEL_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/throughput_predictor.h"
#include "serve/inference_server.h"

namespace granite::serve {

/** Lifecycle of a shadow (canary) session on one route. */
enum class CanaryState {
  /** No shadow session on this route. */
  kInactive,
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

/** Configuration of a shadow session (StartShadow). */
struct ShadowConfig {
  /** Comparisons to accumulate before the parity verdict. The verdict
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
   * overflow policy is forced to kReject: a saturated candidate sheds
   * mirrored traffic (counted in mirror_rejects) instead of ever
   * blocking the client submit path. */
  InferenceServerConfig server_config;
};

/** Point-in-time statistics of a route's shadow session. */
struct ShadowStats {
  CanaryState state = CanaryState::kInactive;
  /** Requests mirrored to (accepted by) the candidate server. */
  std::uint64_t mirrored = 0;
  /** Mirror submissions the candidate rejected (its queue was full);
   * the client still got the primary answer — isolation holds. */
  std::uint64_t mirror_rejects = 0;
  /** Prediction pairs compared so far. */
  std::uint64_t compared = 0;
  /** Compared pairs whose predictions are equal. */
  std::uint64_t parity = 0;
  /** Pairs where either side's future threw (shed/failed batch);
   * excluded from `compared`. */
  std::uint64_t compare_failures = 0;
  /** Largest relative difference seen, |primary - candidate| /
   * max(|primary|, |candidate|, 1e-12), over compared pairs. */
  double max_rel_diff = 0.0;
  /** Mean |primary - candidate| over compared pairs. */
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
 * of threads concurrently; see the class comment above for how the
 * submit path avoids router-wide locks.
 */
class ModelRouter {
 public:
  /** @param default_config Server configuration of every model's
   *   InferenceServer. */
  explicit ModelRouter(const InferenceServerConfig& default_config = {});

  /** Shuts down every hosted server and comparator. */
  ~ModelRouter();

  ModelRouter(const ModelRouter&) = delete;
  ModelRouter& operator=(const ModelRouter&) = delete;

  /**
   * Adds a model under `name` (fails on duplicate model/split names)
   * and starts serving it immediately. The router owns the model — the
   * natural fit for predictors returned by model::LoadModel.
   * Thread-safe.
   */
  void AddModel(const std::string& name,
                std::unique_ptr<model::ThroughputPredictor> predictor);

  /**
   * Registers `split_name` as a weighted A/B split over two existing
   * model routes: a request for `split_name` goes to `route_a` with
   * probability `weight_a` (and to `route_b` otherwise), chosen
   * deterministically from the block fingerprint. Split names share
   * the namespace with model names (duplicates fail); splits may only
   * target models, not other splits. Thread-safe.
   */
  void AddSplit(const std::string& split_name, const std::string& route_a,
                const std::string& route_b, double weight_a);

  /**
   * Starts a shadow session on model route `name`: from now on, every
   * request served by the route is also mirrored to `candidate`
   * (served by its own server per config.server_config); predictions
   * are compared on a dedicated comparator thread and never returned
   * to clients. The router owns the candidate. Fails if `name` is
   * unknown or the route is already shadowing. A finished session
   * (kPromoted/kRejected) is replaced by the new one. Thread-safe.
   */
  void StartShadow(const std::string& name,
                   std::unique_ptr<model::ThroughputPredictor> candidate,
                   const ShadowConfig& config);

  /** The route's shadow statistics, or an empty optional when it never
   * had a shadow session. Thread-safe. */
  std::optional<ShadowStats> ShadowStatus(const std::string& name) const;

  /** The split's routing statistics, or an empty optional when `name`
   * is not a split. Thread-safe. */
  std::optional<SplitStats> SplitStatus(const std::string& name) const;

  /**
   * Enqueues one prediction request on the named route — a model (its
   * active server, with shadow mirroring when a session is live) or an
   * A/B split (resolved by block fingerprint). Returns an empty
   * optional when `name` is unknown (counted in
   * unknown_model_requests()) or when the serving server rejects the
   * request (backpressure/shutdown). Thread-safe; no router-wide
   * exclusive lock is taken.
   */
  std::optional<std::future<double>> Submit(
      const std::string& name, const assembly::BasicBlock* block, int task,
      AdmissionClass admission = AdmissionClass::kInteractive);

  /** True when a model is registered under `name` (splits excluded). */
  bool HasModel(const std::string& name) const;

  /** Registered model names, sorted (splits excluded). */
  std::vector<std::string> ModelNames() const;

  /** Registered split names, sorted. */
  std::vector<std::string> SplitNames() const;

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

  /** Shuts down every hosted server — active, retired and shadow
   * candidates — then drains and joins the shadow comparators
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
   * One live (or finished) shadow session. The comparator thread owns
   * the drain side of `pending`; `mutex` guards `pending`, `stopping`
   * and the comparison statistics; `state` and the mirror counters are
   * atomics so the submit path reads/updates them without the lock.
   */
  struct ShadowSession {
    ShadowConfig config;
    InferenceServer* candidate_server = nullptr;

    std::atomic<CanaryState> state{CanaryState::kShadowing};
    std::atomic<std::uint64_t> mirrored{0};
    std::atomic<std::uint64_t> mirror_rejects{0};

    std::mutex mutex;
    std::condition_variable event;
    std::deque<PendingComparison> pending;
    bool stopping = false;
    /** Comparison stats; guarded by mutex. */
    std::uint64_t compared = 0;
    std::uint64_t parity = 0;
    std::uint64_t compare_failures = 0;
    double max_rel_diff = 0.0;
    double sum_abs_diff = 0.0;
    bool verdict_reached = false;

    std::thread comparator;
  };

  /**
   * One hosted model route. The active server (which serves the route's
   * active model, its model()) is an atomic so a canary promotion swaps
   * it without locking the submit path;
   * retired predecessors (and shadow candidates) stay alive in the
   * owned_* vectors until router teardown, so requests already queued
   * on an old server always complete. Entries are heap-allocated
   * (atomics are not movable) and node-stable once published.
   */
  struct Entry {
    std::vector<std::unique_ptr<model::ThroughputPredictor>> owned_models;
    std::vector<std::unique_ptr<InferenceServer>> owned_servers;
    std::atomic<InferenceServer*> active_server{nullptr};
    /** Current session storage; guarded by session_mutex. The raw
     * atomic below is what the submit path reads. */
    std::unique_ptr<ShadowSession> shadow_storage;
    /** Finished sessions kept alive (never freed before teardown): a
     * concurrent Submit may still hold a replaced session's pointer.
     * Guarded by session_mutex. */
    std::vector<std::unique_ptr<ShadowSession>> retired_sessions;
    std::atomic<ShadowSession*> shadow{nullptr};
    std::mutex session_mutex;
  };

  /** One weighted A/B split (heap-allocated: atomics). */
  struct Split {
    std::string route_a;
    std::string route_b;
    double weight_a = 0.5;
    std::atomic<std::uint64_t> to_a{0};
    std::atomic<std::uint64_t> to_b{0};
  };

  void AddEntry(const std::string& name, std::unique_ptr<Entry> entry);

  /** Returns the entry for `name`, or null. Shared-locks routes_mutex_
   * only for the lookup; Entry pointers are stable. */
  Entry* FindEntry(const std::string& name) const;
  /** Returns the split for `name`, or null (same locking discipline). */
  Split* FindSplit(const std::string& name) const;

  /** The split arm (model name) for `block`: deterministic on the
   * block's canonical fingerprint. Also bumps the arm counter. */
  const std::string& ResolveSplit(Split& split,
                                  const assembly::BasicBlock& block) const;

  /** Comparator thread: drains pending primary/candidate pairs,
   * accumulates parity stats, decides the verdict. */
  void ComparatorLoop(Entry& entry, ShadowSession& session);

  /** Stops and joins a finished session's comparator; shuts its
   * candidate server down first unless auto-promotion made it the active
   * server. Requires entry.session_mutex to be held. */
  static void StopSessionLocked(Entry& entry, ShadowSession& session);

  InferenceServerConfig default_config_;
  /** Guards the routes_/splits_ map structure (entries node-stable). */
  mutable std::shared_mutex routes_mutex_;
  std::map<std::string, std::unique_ptr<Entry>> routes_;
  std::map<std::string, std::unique_ptr<Split>> splits_;
  std::atomic<std::uint64_t> unknown_model_requests_{0};
};

}  // namespace granite::serve

#endif  // GRANITE_SERVE_MODEL_ROUTER_H_
