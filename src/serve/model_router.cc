#include "serve/model_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <utility>

#include "base/logging.h"
#include "uarch/measurement.h"

namespace granite::serve {

std::string_view CanaryStateName(CanaryState state) {
  switch (state) {
    case CanaryState::kShadowing:
      return "shadowing";
    case CanaryState::kPromoted:
      return "promoted";
    case CanaryState::kRejected:
      return "rejected";
  }
  GRANITE_PANIC("unhandled CanaryState " << static_cast<int>(state));
}

ModelRouter::ModelRouter(RouterSetup setup) {
  // Every check runs before the first server starts.
  for (const ModelRoute& route : setup.models) {
    GRANITE_CHECK_MSG(route.model != nullptr,
                      "model route without a model: " << route.name);
    GRANITE_CHECK_MSG(route.candidate == nullptr ||
                          route.shadow.min_comparisons >= 1,
                      "shadow min_comparisons must be at least 1 on route "
                          << route.name);
    // A mirrored request's task must exist on the candidate too.
    GRANITE_CHECK_MSG(route.candidate == nullptr ||
                          route.candidate->num_tasks() ==
                              route.model->num_tasks(),
                      "shadow candidate of route "
                          << route.name << " has "
                          << route.candidate->num_tasks()
                          << " task heads, the route has "
                          << route.model->num_tasks());
    const bool inserted = routes_.try_emplace(route.name).second;
    GRANITE_CHECK_MSG(inserted, "duplicate model name: " << route.name);
  }
  for (const SplitRoute& route : setup.splits) {
    GRANITE_CHECK_MSG(route.weight_a >= 0.0 && route.weight_a <= 1.0,
                      "split weight must be in [0, 1], got "
                          << route.weight_a);
    GRANITE_CHECK_MSG(routes_.count(route.route_a) == 1,
                      "split arm is not a model: " << route.route_a);
    GRANITE_CHECK_MSG(routes_.count(route.route_b) == 1,
                      "split arm is not a model: " << route.route_b);
    GRANITE_CHECK_MSG(routes_.count(route.name) == 0,
                      "split name collides with a model: " << route.name);
    const auto [it, inserted] = splits_.try_emplace(route.name);
    GRANITE_CHECK_MSG(inserted, "duplicate split name: " << route.name);
    it->second.route_a = route.route_a;
    it->second.route_b = route.route_b;
    it->second.weight_a = route.weight_a;
  }

  for (ModelRoute& route : setup.models) {
    Entry& entry = routes_.at(route.name);
    entry.model = std::move(route.model);
    entry.server = std::make_unique<InferenceServer>(entry.model.get(),
                                                     setup.server_config);
    entry.active_server.store(entry.server.get(), std::memory_order_relaxed);
    if (route.candidate == nullptr) continue;
    auto session = std::make_unique<ShadowSession>();
    session->config = route.shadow;
    // A saturated candidate must reject mirrored traffic, never block the
    // client submit path.
    session->config.server_config.overflow_policy = OverflowPolicy::kReject;
    session->candidate = std::move(route.candidate);
    session->candidate_server = std::make_unique<InferenceServer>(
        session->candidate.get(), session->config.server_config);
    session->mirror_slots.store(session->config.min_comparisons,
                                std::memory_order_relaxed);
    session->comparator = std::thread(ComparatorLoop, std::ref(entry),
                                      std::ref(*session));
    entry.shadow = std::move(session);
  }
}

ModelRouter::~ModelRouter() { Shutdown(); }

const ModelRouter::Entry* ModelRouter::FindEntry(
    const std::string& name) const {
  const auto it = routes_.find(name);
  return it == routes_.end() ? nullptr : &it->second;
}

const std::string& ModelRouter::ResolveSplit(
    Split& split, const assembly::BasicBlock& block) {
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

void ModelRouter::ComparatorLoop(Entry& entry, ShadowSession& session) {
  std::unique_lock<std::mutex> lock(session.mutex);
  for (;;) {
    session.event.wait(lock, [&session] {
      return session.stopping || !session.pending.empty();
    });
    if (session.pending.empty()) return;  // Stopping, nothing left.
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
      // The failed mirror's slot goes back, so the verdict still gets
      // min_comparisons compared pairs.
      session.mirror_slots.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++session.compared;
    double abs_diff = std::abs(primary_value - candidate_value);
    double rel_diff =
        abs_diff / std::max({std::abs(primary_value),
                             std::abs(candidate_value), 1e-12});
    // A non-finite value on either side is as far off as a pair gets;
    // NaN would otherwise vanish from the max and poison only the mean.
    if (!std::isfinite(primary_value) || !std::isfinite(candidate_value)) {
      abs_diff = rel_diff = std::numeric_limits<double>::infinity();
    }
    session.sum_abs_diff += abs_diff;
    session.max_rel_diff = std::max(session.max_rel_diff, rel_diff);
    if (abs_diff == 0.0) ++session.parity;

    // Each compared pair used a mirror slot that never comes back, so
    // the count reaches min_comparisons exactly once.
    if (session.compared == session.config.min_comparisons) {
      if (session.parity == session.compared) {
        session.state.store(CanaryState::kPromoted,
                            std::memory_order_release);
        // One atomic swap: each server always serves its own model, so
        // a request gets the old model from the old server or the new
        // one from the new server.
        if (session.config.auto_promote) {
          entry.active_server.store(session.candidate_server.get(),
                                    std::memory_order_release);
        }
      } else {
        session.state.store(CanaryState::kRejected,
                            std::memory_order_release);
      }
    }
  }
}

std::optional<ShadowStats> ModelRouter::ShadowStatus(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);
  ShadowSession* session = entry->shadow.get();
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
  const auto it = splits_.find(name);
  if (it == splits_.end()) return std::nullopt;
  const Split& split = it->second;
  SplitStats stats;
  stats.route_a = split.route_a;
  stats.route_b = split.route_b;
  stats.weight_a = split.weight_a;
  stats.to_a = split.to_a.load(std::memory_order_relaxed);
  stats.to_b = split.to_b.load(std::memory_order_relaxed);
  return stats;
}

std::optional<std::future<double>> ModelRouter::Submit(
    const std::string& name, const assembly::BasicBlock* block, int task) {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    const auto split = splits_.find(name);
    if (split == splits_.end()) {
      unknown_model_requests_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    GRANITE_CHECK(block != nullptr);
    // Split arms are checked model routes.
    entry = &routes_.at(ResolveSplit(split->second, *block));
  }
  InferenceServer* server =
      entry->active_server.load(std::memory_order_acquire);
  std::optional<std::future<double>> primary =
      server->Submit(block, task);
  if (!primary.has_value()) return std::nullopt;

  ShadowSession* session = entry->shadow.get();
  if (session == nullptr) return primary;
  // Take a mirror slot; none are left once the verdict's comparisons
  // are all done or in flight.
  std::uint64_t slots = session->mirror_slots.load(std::memory_order_relaxed);
  do {
    if (slots == 0) return primary;
  } while (!session->mirror_slots.compare_exchange_weak(
      slots, slots - 1, std::memory_order_relaxed));
  // Mirror to the candidate. Its server runs OverflowPolicy::kReject,
  // so a saturated candidate rejects here instead of blocking the client.
  std::optional<std::future<double>> mirrored =
      session->candidate_server->Submit(block, task);
  if (!mirrored.has_value()) {
    session->mirror_slots.fetch_add(1, std::memory_order_relaxed);
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

ServerStats ModelRouter::Stats(const std::string& name) const {
  const Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);
  return entry->active_server.load(std::memory_order_acquire)->Stats();
}

const model::ThroughputPredictor& ModelRouter::Model(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  GRANITE_CHECK_MSG(entry != nullptr, "unknown model: " << name);
  return entry->active_server.load(std::memory_order_acquire)->model();
}

std::string ModelRouter::StatsString() const {
  std::string text;
  for (const auto& [name, entry] : routes_) {
    const InferenceServer* server =
        entry.active_server.load(std::memory_order_acquire);
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
  for (const auto& [name, split] : splits_) {
    const SplitStats stats = *SplitStatus(name);
    text += "split '" + name + "': " + stats.route_a + ":" + stats.route_b;
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  " weight_a=%.3f, to_a=%llu, to_b=%llu\n", stats.weight_a,
                  static_cast<unsigned long long>(stats.to_a),
                  static_cast<unsigned long long>(stats.to_b));
    text += buffer;
  }
  text += "unknown-model submissions: " +
          std::to_string(unknown_model_requests()) + "\n";
  return text;
}

void ModelRouter::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Phase 1: shut down every server, primaries and candidates. Each
    // drains its queued requests, so every future the comparators are
    // waiting on resolves.
    for (auto& [name, entry] : routes_) {
      entry.server->Shutdown();
      if (entry.shadow != nullptr) entry.shadow->candidate_server->Shutdown();
    }
    // Phase 2: drain and join the comparators.
    for (auto& [name, entry] : routes_) {
      if (entry.shadow == nullptr) continue;
      ShadowSession& session = *entry.shadow;
      {
        std::lock_guard<std::mutex> lock(session.mutex);
        session.stopping = true;
      }
      session.event.notify_all();
      session.comparator.join();
    }
  });
}

}  // namespace granite::serve
