#include "autotune/search.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "autotune/transforms.h"
#include "base/logging.h"
#include "uarch/measurement.h"

namespace granite::autotune {

using assembly::BasicBlock;

ServerCostClient::ServerCostClient(serve::InferenceServer* server, int task)
    : server_(server), task_(task) {
  GRANITE_CHECK(server != nullptr);
}

std::vector<std::optional<std::future<double>>> ServerCostClient::SubmitWave(
    const std::vector<const BasicBlock*>& blocks) {
  std::vector<serve::BatchSubmitRequest> requests;
  requests.reserve(blocks.size());
  for (const BasicBlock* block : blocks) {
    requests.push_back(serve::BatchSubmitRequest{block, task_});
  }
  return server_->SubmitMany(requests);
}

AnalyticalCostClient::AnalyticalCostClient(
    uarch::Microarchitecture microarchitecture)
    : oracle_(microarchitecture) {}

std::vector<std::optional<std::future<double>>>
AnalyticalCostClient::SubmitWave(
    const std::vector<const BasicBlock*>& blocks) {
  std::vector<std::optional<std::future<double>>> futures;
  futures.reserve(blocks.size());
  for (const BasicBlock* block : blocks) {
    std::promise<double> promise;
    promise.set_value(oracle_.CyclesPerIteration(*block));
    futures.push_back(promise.get_future());
  }
  return futures;
}

BlockOptimizer::BlockOptimizer(CostClient* client, const SearchConfig& config)
    : client_(client), config_(config) {
  GRANITE_CHECK(client != nullptr);
  GRANITE_CHECK(config.beam_width >= 1);
  GRANITE_CHECK(config.max_depth >= 0);
}

namespace {

/** One step of a composition path: the rule applied and the step it
 * extends (kNoStep for the original block). */
struct PathStep {
  std::size_t parent;
  std::string_view rule;
};

constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

/** One scored point in the search space: a block plus the last step of
 * the composition that produced it, in the Optimize call's trail. */
struct SearchNode {
  BasicBlock block;
  double cost = 0.0;
  std::size_t step = kNoStep;
};

}  // namespace

OptimizeResult BlockOptimizer::Optimize(const BasicBlock& block) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto past_deadline = [&] {
    return config_.deadline.count() > 0 &&
           Clock::now() - start >= config_.deadline;
  };

  OptimizeResult result;
  result.best = block;

  // Score the original through the same backend so the improvement
  // judgment compares like with like (and warms the prediction cache
  // for the undo-moves the search will re-derive).
  {
    std::vector<std::optional<std::future<double>>> futures =
        client_->SubmitWave({&block});
    if (!futures[0].has_value()) {
      ++result.rejected;
      return result;
    }
    try {
      result.original_cost = futures[0]->get();
    } catch (const std::exception&) {
      ++result.rejected;
      return result;
    }
  }
  result.scored = true;
  result.best_cost = result.original_cost;

  SearchNode best{block, result.original_cost, kNoStep};
  // Every step any candidate took; a node's rule path is the chain of
  // parents from its step, so no candidate copies its parent's path.
  std::vector<PathStep> trail;
  std::vector<SearchNode> frontier;
  frontier.push_back(best);

  for (int depth = 1; depth <= config_.max_depth; ++depth) {
    if (past_deadline()) {
      result.deadline_hit = true;
      break;
    }
    // Expand the frontier; deduplicate within the wave by fingerprint.
    // Blocks seen in *earlier* waves are resubmitted on purpose — the
    // server's prediction cache answers them (see the header contract).
    std::vector<SearchNode> wave;
    std::unordered_set<uint64_t> wave_fingerprints;
    for (const SearchNode& node : frontier) {
      for (RewriteCandidate& candidate : EnumerateCandidates(node.block)) {
        ++result.candidates_generated;
        const uint64_t fingerprint =
            uarch::BlockFingerprint(candidate.block);
        if (!wave_fingerprints.insert(fingerprint).second) {
          ++result.duplicates_skipped;
          continue;
        }
        SearchNode child;
        child.block = std::move(candidate.block);
        child.step = trail.size();
        trail.push_back(PathStep{node.step, candidate.rule});
        wave.push_back(std::move(child));
      }
    }
    if (wave.empty()) break;

    std::vector<const BasicBlock*> wave_blocks;
    wave_blocks.reserve(wave.size());
    for (const SearchNode& node : wave) wave_blocks.push_back(&node.block);
    std::vector<std::optional<std::future<double>>> futures =
        client_->SubmitWave(wave_blocks);

    std::vector<SearchNode> scored;
    scored.reserve(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (!futures[i].has_value()) {
        ++result.rejected;
        continue;
      }
      try {
        wave[i].cost = futures[i]->get();
      } catch (const std::exception&) {
        ++result.rejected;  // Failed batch or unencodable block.
        continue;
      }
      ++result.candidates_scored;
      scored.push_back(std::move(wave[i]));
    }
    result.depth_reached = depth;
    if (scored.empty()) break;

    std::stable_sort(scored.begin(), scored.end(),
                     [](const SearchNode& a, const SearchNode& b) {
                       return a.cost < b.cost;
                     });
    if (scored.size() > static_cast<std::size_t>(config_.beam_width)) {
      scored.resize(static_cast<std::size_t>(config_.beam_width));
    }
    if (scored.front().cost < best.cost) {
      best = scored.front();
    }
    frontier = std::move(scored);
  }

  // The margin is relative to the cost's magnitude, so it stays below the
  // original when a model predicts a negative cost.
  const double margin = std::abs(result.original_cost) * kMinRelativeGain;
  if (best.cost < result.original_cost - margin) {
    result.improved = true;
    result.best = std::move(best.block);
    result.best_cost = best.cost;
    for (std::size_t step = best.step; step != kNoStep;
         step = trail[step].parent) {
      result.applied.emplace_back(trail[step].rule);
    }
    std::reverse(result.applied.begin(), result.applied.end());
    result.predicted_speedup = best.cost > 0.0 && result.original_cost > 0.0
                                   ? result.original_cost / best.cost
                                   : 1.0;
  }
  return result;
}

}  // namespace granite::autotune
