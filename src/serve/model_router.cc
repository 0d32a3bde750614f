#include "serve/model_router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
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

namespace {

/** Throws a RouterSetupError whose message is `parts` streamed in turn. */
template <typename... Parts>
[[noreturn]] void Refuse(const Parts&... parts) {
  std::ostringstream message;
  (message << ... << parts);
  throw RouterSetupError(message.str());
}

}  // namespace

void CheckRouteNames(const RouterSetup& setup) {
  std::set<std::string_view> models;
  for (const ModelRoute& route : setup.models) {
    if (!models.insert(route.name).second) {
      Refuse("duplicate model route name '", route.name, "'");
    }
  }
  std::set<std::string_view> split_names;
  for (const SplitRoute& route : setup.splits) {
    if (!(route.weight_a >= 0.0 && route.weight_a <= 1.0)) {
      Refuse("split '", route.name, "' weight must be in [0, 1], got ",
             route.weight_a);
    }
    for (const std::string* arm : {&route.route_a, &route.route_b}) {
      if (models.count(*arm) == 0) {
        Refuse("split '", route.name, "' arm '", *arm,
               "' is not a model route");
      }
    }
    if (models.count(route.name) == 1) {
      Refuse("split name '", route.name, "' collides with a model route");
    }
    if (!split_names.insert(route.name).second) {
      Refuse("duplicate split name '", route.name, "'");
    }
  }
}

ModelRouter::ModelRouter(RouterSetup setup) {
  // Every check runs before the first server starts.
  CheckRouteNames(setup);
  for (const ModelRoute& route : setup.models) {
    if (route.model == nullptr) {
      Refuse("model route '", route.name, "' has no model");
    }
    if (route.candidate != nullptr && route.shadow.min_comparisons == 0) {
      Refuse("shadow min_comparisons of route '", route.name,
             "' must be at least 1");
    }
    // A mirrored request's task must exist on the candidate too.
    if (route.candidate != nullptr &&
        route.candidate->num_tasks() != route.model->num_tasks()) {
      Refuse("shadow candidate has ", route.candidate->num_tasks(),
             " task head(s), route '", route.name, "' has ",
             route.model->num_tasks());
    }
  }
  for (const SplitRoute& route : setup.splits) {
    Split& split = splits_[route.name];
    split.route_a = route.route_a;
    split.route_b = route.route_b;
    split.weight_a = route.weight_a;
  }

  for (ModelRoute& route : setup.models) {
    Entry& entry = routes_[route.name];
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
    session->mirror_slots = session->config.min_comparisons;
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

void ModelRouter::FoldReady(const Entry& entry, ShadowSession& session) {
  constexpr std::chrono::seconds kNoWait{0};
  while (!session.pending.empty()) {
    PendingComparison& pair = session.pending.front();
    // Pairs fold in submission order, so the front pair waits for its
    // predictions and every later pair waits behind it.
    if (pair.primary.wait_for(kNoWait) != std::future_status::ready ||
        pair.candidate.wait_for(kNoWait) != std::future_status::ready) {
      return;
    }
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
    session.pending.pop_front();

    if (!comparable) {
      ++session.compare_failures;
      // The failed mirror's slot goes back, so the verdict still gets
      // min_comparisons compared pairs.
      ++session.mirror_slots;
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
    // the count reaches min_comparisons exactly once, with no pair
    // pending or in flight.
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
  std::lock_guard<std::mutex> lock(session->mutex);
  FoldReady(*entry, *session);
  ShadowStats stats;
  stats.state = session->state.load(std::memory_order_relaxed);
  stats.mirrored = session->mirrored;
  stats.mirror_rejects = session->mirror_rejects;
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
  // After the verdict no pair is pending and no mirror slot is left.
  if (session == nullptr || session->state.load(std::memory_order_acquire) !=
                                CanaryState::kShadowing) {
    return primary;
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  // No mirror slot is left once the verdict's comparisons are all done
  // or in flight.
  if (session->mirror_slots > 0) {
    // Mirror to the candidate. Its server runs OverflowPolicy::kReject,
    // so a saturated candidate rejects here instead of blocking the
    // client.
    std::optional<std::future<double>> mirrored =
        session->candidate_server->Submit(block, task);
    if (!mirrored.has_value()) {
      ++session->mirror_rejects;
    } else {
      --session->mirror_slots;
      ++session->mirrored;
      // The client gets its own copy of the primary's shared state; the
      // pending pair holds another. The candidate's value can reach only
      // the comparison — never the client — and a stuck candidate can
      // delay only comparisons, not answers.
      std::shared_future<double> shared_primary = primary->share();
      session->pending.push_back(
          PendingComparison{shared_primary, std::move(*mirrored)});
      primary = std::async(std::launch::deferred, [shared_primary] {
        return shared_primary.get();
      });
    }
  }
  FoldReady(*entry, *session);
  return primary;
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
    // Folded first, so a promotion it decides shows in this block.
    const std::optional<ShadowStats> shadow = ShadowStatus(name);
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
    for (auto& [name, entry] : routes_) {
      entry.server->Shutdown();
      if (entry.shadow == nullptr) continue;
      ShadowSession& session = *entry.shadow;
      session.candidate_server->Shutdown();
      // Both servers a pair waits on have drained their queues, so
      // every pending pair is ready and folds.
      std::lock_guard<std::mutex> lock(session.mutex);
      FoldReady(entry, session);
    }
  });
}

}  // namespace granite::serve
