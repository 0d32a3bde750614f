#include "serve/model_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "base/logging.h"
#include "uarch/measurement.h"

namespace granite::serve {

std::string_view CanaryStateName(CanaryState state) {
  switch (state) {
    case CanaryState::kInactive:
      return "inactive";
    case CanaryState::kShadowing:
      return "shadowing";
    case CanaryState::kPromoted:
      return "promoted";
    case CanaryState::kRejected:
      return "rejected";
  }
  GRANITE_PANIC("unhandled CanaryState " << static_cast<int>(state));
}

ModelRouter::ModelRouter(const InferenceServerConfig& default_config)
    : default_config_(default_config) {}

ModelRouter::~ModelRouter() { Shutdown(); }

void ModelRouter::AddModel(
    const std::string& name,
    std::unique_ptr<model::ThroughputPredictor> predictor) {
  GRANITE_CHECK(predictor != nullptr);
  auto entry = std::make_unique<Entry>();
  auto server =
      std::make_unique<InferenceServer>(predictor.get(), default_config_);
  entry->active_server.store(server.get(), std::memory_order_relaxed);
  entry->owned_models.push_back(std::move(predictor));
  entry->owned_servers.push_back(std::move(server));
  AddEntry(name, std::move(entry));
}

void ModelRouter::AddEntry(const std::string& name,
                           std::unique_ptr<Entry> entry) {
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  GRANITE_CHECK_MSG(splits_.find(name) == splits_.end(),
                    "model name collides with a split: " << name);
  const auto [it, inserted] = routes_.emplace(name, std::move(entry));
  (void)it;
  GRANITE_CHECK_MSG(inserted, "duplicate model name: " << name);
}

void ModelRouter::AddSplit(const std::string& split_name,
                           const std::string& route_a,
                           const std::string& route_b, double weight_a) {
  GRANITE_CHECK_MSG(weight_a >= 0.0 && weight_a <= 1.0,
                    "split weight must be in [0, 1], got " << weight_a);
  auto split = std::make_unique<Split>();
  split->route_a = route_a;
  split->route_b = route_b;
  split->weight_a = weight_a;
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  GRANITE_CHECK_MSG(routes_.find(route_a) != routes_.end(),
                    "split arm is not a model: " << route_a);
  GRANITE_CHECK_MSG(routes_.find(route_b) != routes_.end(),
                    "split arm is not a model: " << route_b);
  GRANITE_CHECK_MSG(routes_.find(split_name) == routes_.end(),
                    "split name collides with a model: " << split_name);
  const auto [it, inserted] = splits_.emplace(split_name, std::move(split));
  (void)it;
  GRANITE_CHECK_MSG(inserted, "duplicate split name: " << split_name);
}

ModelRouter::Entry* ModelRouter::FindEntry(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  const auto it = routes_.find(name);
  return it == routes_.end() ? nullptr : it->second.get();
}

ModelRouter::Split* ModelRouter::FindSplit(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  const auto it = splits_.find(name);
  return it == splits_.end() ? nullptr : it->second.get();
}

const std::string& ModelRouter::ResolveSplit(
    Split& split, const assembly::BasicBlock& block) const {
  // Deterministic arm choice: a golden-ratio remix of the canonical
  // fingerprint (independent of the server's shard routing, which uses
  // the fingerprint modulo shard count) mapped to [0, 1). The same
  // block always lands on the same arm, so each arm's predictions are
  // bit-identical to serving that model directly.
  std::uint64_t mixed =
      uarch::BlockFingerprint(block) * 0x9E3779B97F4A7C15ull;
  mixed ^= mixed >> 29;
  const double fraction =
      static_cast<double>(mixed >> 11) * 0x1.0p-53;
  if (fraction < split.weight_a) {
    split.to_a.fetch_add(1, std::memory_order_relaxed);
    return split.route_a;
  }
  split.to_b.fetch_add(1, std::memory_order_relaxed);
  return split.route_b;
}

void ModelRouter::StartShadow(
    const std::string& name,
    std::unique_ptr<model::ThroughputPredictor> candidate,
    const ShadowConfig& config) {
  GRANITE_CHECK(candidate != nullptr);
  GRANITE_CHECK_GE(config.min_comparisons, 1u);
  Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);

  std::lock_guard<std::mutex> session_lock(entry->session_mutex);
  ShadowSession* old_session =
      entry->shadow.load(std::memory_order_acquire);
  if (old_session != nullptr) {
    GRANITE_CHECK_MSG(
        old_session->state.load(std::memory_order_acquire) !=
            CanaryState::kShadowing,
        "route '" << name << "' is already shadowing a candidate");
    StopSessionLocked(*entry, *old_session);
  }

  auto session = std::make_unique<ShadowSession>();
  session->config = config;
  // A saturated candidate must shed mirrored traffic, never block the
  // client submit path.
  session->config.server_config.overflow_policy = OverflowPolicy::kReject;
  auto server = std::make_unique<InferenceServer>(
      candidate.get(), session->config.server_config);
  session->candidate_server = server.get();
  entry->owned_models.push_back(std::move(candidate));
  entry->owned_servers.push_back(std::move(server));

  ShadowSession* raw = session.get();
  session->comparator =
      std::thread([this, entry, raw] { ComparatorLoop(*entry, *raw); });
  // Retire (not free) the previous session: a concurrent Submit may
  // still hold its pointer; its comparator is already joined.
  if (entry->shadow_storage != nullptr) {
    entry->retired_sessions.push_back(std::move(entry->shadow_storage));
  }
  entry->shadow_storage = std::move(session);
  // Publish only once fully constructed; the submit path starts
  // mirroring from here on.
  entry->shadow.store(raw, std::memory_order_release);
}

void ModelRouter::ComparatorLoop(Entry& entry, ShadowSession& session) {
  std::unique_lock<std::mutex> lock(session.mutex);
  for (;;) {
    session.event.wait(lock, [&session] {
      return session.stopping || !session.pending.empty();
    });
    if (session.pending.empty()) {
      if (session.stopping) return;
      continue;
    }
    PendingComparison pair = std::move(session.pending.front());
    session.pending.pop_front();
    lock.unlock();

    // Blocking waits happen off the lock (and off the client path: the
    // client owns an independent copy of the primary shared_future).
    double primary_value = 0.0;
    double candidate_value = 0.0;
    bool comparable = true;
    try {
      primary_value = pair.primary.get();
    } catch (...) {
      comparable = false;
    }
    try {
      candidate_value = pair.candidate.get();
    } catch (...) {
      comparable = false;
    }

    lock.lock();
    if (!comparable) {
      ++session.compare_failures;
      continue;
    }
    ++session.compared;
    const double abs_diff = std::abs(primary_value - candidate_value);
    const double scale = std::max(
        {std::abs(primary_value), std::abs(candidate_value), 1e-12});
    session.sum_abs_diff += abs_diff;
    session.max_rel_diff = std::max(session.max_rel_diff, abs_diff / scale);
    if (abs_diff == 0.0) ++session.parity;

    if (!session.verdict_reached &&
        session.compared >= session.config.min_comparisons) {
      session.verdict_reached = true;
      if (session.parity == session.compared) {
        session.state.store(CanaryState::kPromoted,
                            std::memory_order_release);
        // One atomic swap: each server always serves its own model, so
        // a request gets the old model from the old server or the new
        // one from the new server.
        if (session.config.auto_promote) {
          entry.active_server.store(session.candidate_server,
                                    std::memory_order_release);
        }
      } else {
        session.state.store(CanaryState::kRejected,
                            std::memory_order_release);
      }
      // Either way the mirror ends (Submit checks the state); the loop
      // keeps draining comparisons already in flight.
    }
  }
}

void ModelRouter::StopSessionLocked(Entry& entry, ShadowSession& session) {
  if (!session.comparator.joinable()) return;
  // Resolve every candidate future the comparator might still be
  // waiting on. A candidate that auto-promotion swapped in is the
  // route's active server — leave it running; traffic keeps flowing
  // while we drain. Any other candidate (rejected, or a parity verdict
  // with auto_promote off) can never serve again.
  if (entry.active_server.load(std::memory_order_acquire) !=
      session.candidate_server) {
    session.candidate_server->Shutdown();
  }
  {
    std::lock_guard<std::mutex> lock(session.mutex);
    session.stopping = true;
  }
  session.event.notify_all();
  session.comparator.join();
}

std::optional<ShadowStats> ModelRouter::ShadowStatus(
    const std::string& name) const {
  Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);
  ShadowSession* session = entry->shadow.load(std::memory_order_acquire);
  if (session == nullptr) return std::nullopt;
  ShadowStats stats;
  stats.state = session->state.load(std::memory_order_acquire);
  stats.mirrored = session->mirrored.load(std::memory_order_relaxed);
  stats.mirror_rejects =
      session->mirror_rejects.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(session->mutex);
  stats.compared = session->compared;
  stats.parity = session->parity;
  stats.compare_failures = session->compare_failures;
  stats.max_rel_diff = session->max_rel_diff;
  stats.mean_abs_diff =
      session->compared == 0
          ? 0.0
          : session->sum_abs_diff / static_cast<double>(session->compared);
  return stats;
}

std::optional<SplitStats> ModelRouter::SplitStatus(
    const std::string& name) const {
  Split* split = FindSplit(name);
  if (split == nullptr) return std::nullopt;
  SplitStats stats;
  stats.route_a = split->route_a;
  stats.route_b = split->route_b;
  stats.weight_a = split->weight_a;
  stats.to_a = split->to_a.load(std::memory_order_relaxed);
  stats.to_b = split->to_b.load(std::memory_order_relaxed);
  return stats;
}

std::optional<std::future<double>> ModelRouter::Submit(
    const std::string& name, const assembly::BasicBlock* block, int task,
    AdmissionClass admission) {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    Split* split = FindSplit(name);
    if (split == nullptr) {
      unknown_model_requests_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    GRANITE_CHECK(block != nullptr);
    entry = FindEntry(ResolveSplit(*split, *block));
    GRANITE_CHECK(entry != nullptr);  // Split arms are validated models.
  }
  InferenceServer* server =
      entry->active_server.load(std::memory_order_acquire);
  std::optional<std::future<double>> primary =
      server->Submit(block, task, admission);
  if (!primary.has_value()) return std::nullopt;

  ShadowSession* session = entry->shadow.load(std::memory_order_acquire);
  if (session == nullptr ||
      session->state.load(std::memory_order_acquire) !=
          CanaryState::kShadowing) {
    return primary;
  }
  // Mirror to the candidate. Its server runs OverflowPolicy::kReject,
  // so a saturated candidate sheds here instead of blocking the client.
  std::optional<std::future<double>> mirrored =
      session->candidate_server->Submit(block, task, admission);
  if (!mirrored.has_value()) {
    session->mirror_rejects.fetch_add(1, std::memory_order_relaxed);
    return primary;
  }
  session->mirrored.fetch_add(1, std::memory_order_relaxed);
  // The client gets its own copy of the primary's shared state; the
  // comparator holds another. The candidate's value can reach only the
  // comparator — never the client — and a stuck candidate can delay
  // only comparisons, not answers.
  std::shared_future<double> shared_primary = primary->share();
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    session->pending.push_back(
        PendingComparison{shared_primary, std::move(*mirrored)});
  }
  session->event.notify_one();
  return std::async(std::launch::deferred, [shared_primary] {
    return shared_primary.get();
  });
}

bool ModelRouter::HasModel(const std::string& name) const {
  return FindEntry(name) != nullptr;
}

std::vector<std::string> ModelRouter::ModelNames() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  std::vector<std::string> names;
  names.reserve(routes_.size());
  for (const auto& [name, entry] : routes_) names.push_back(name);
  return names;
}

std::vector<std::string> ModelRouter::SplitNames() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  std::vector<std::string> names;
  names.reserve(splits_.size());
  for (const auto& [name, split] : splits_) names.push_back(name);
  return names;
}

ServerStats ModelRouter::Stats(const std::string& name) const {
  Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);
  return entry->active_server.load(std::memory_order_acquire)->Stats();
}

const model::ThroughputPredictor& ModelRouter::Model(
    const std::string& name) const {
  Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);
  return entry->active_server.load(std::memory_order_acquire)->model();
}

std::string ModelRouter::StatsString() const {
  std::string text;
  for (const std::string& name : ModelNames()) {
    Entry* entry = FindEntry(name);
    if (entry == nullptr) continue;  // Raced a (hypothetical) removal.
    const InferenceServer* server =
        entry->active_server.load(std::memory_order_acquire);
    text += "model '" + name + "' (";
    text += model::ModelKindName(server->model().kind());
    text += ", " + std::to_string(server->model().num_tasks()) +
            " task(s)):\n";
    std::string stats = server->StatsString();
    // Indent the per-server block under its model heading.
    std::size_t start = 0;
    while (start < stats.size()) {
      const std::size_t end = stats.find('\n', start);
      text += "  " + stats.substr(start, end - start) + "\n";
      if (end == std::string::npos) break;
      start = end + 1;
    }
    const std::optional<ShadowStats> shadow = ShadowStatus(name);
    if (shadow.has_value()) {
      text += "  shadow: state=" + std::string(CanaryStateName(shadow->state));
      text += ", mirrored=" + std::to_string(shadow->mirrored);
      text += ", compared=" + std::to_string(shadow->compared);
      text += ", parity=" + std::to_string(shadow->parity);
      text += ", mirror-rejects=" + std::to_string(shadow->mirror_rejects);
      text += ", failures=" + std::to_string(shadow->compare_failures);
      text += "\n";
    }
  }
  for (const std::string& name : SplitNames()) {
    const std::optional<SplitStats> split = SplitStatus(name);
    if (!split.has_value()) continue;
    text += "split '" + name + "': " + split->route_a + ":" + split->route_b;
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  " weight_a=%.3f, to_a=%llu, to_b=%llu\n", split->weight_a,
                  static_cast<unsigned long long>(split->to_a),
                  static_cast<unsigned long long>(split->to_b));
    text += buffer;
  }
  text += "unknown-model submissions: " +
          std::to_string(unknown_model_requests()) + "\n";
  return text;
}

void ModelRouter::Shutdown() {
  // Phase 1: shut down every server — active, retired and shadow
  // candidates. Each drains its queued requests, so every future the
  // comparators are waiting on resolves. No lock is held while servers
  // drain and join.
  std::vector<Entry*> entries;
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    entries.reserve(routes_.size());
    for (auto& [name, entry] : routes_) entries.push_back(entry.get());
  }
  for (Entry* entry : entries) {
    std::lock_guard<std::mutex> session_lock(entry->session_mutex);
    for (const std::unique_ptr<InferenceServer>& server :
         entry->owned_servers) {
      server->Shutdown();
    }
  }
  // Phase 2: drain and join the comparators (pending comparisons all
  // resolve now that no future can stay unanswered).
  for (Entry* entry : entries) {
    std::lock_guard<std::mutex> session_lock(entry->session_mutex);
    ShadowSession* session = entry->shadow.load(std::memory_order_acquire);
    if (session != nullptr) StopSessionLocked(*entry, *session);
  }
}

}  // namespace granite::serve
