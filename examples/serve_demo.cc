/**
 * @file
 * Serving demo: train a small GRANITE model, export it as a
 * self-describing checkpoint bundle, load the bundle back the way a
 * production server would (model::LoadModel — no config knowledge
 * needed), stand up a long-lived InferenceServer on the loaded model,
 * drive it from several client threads, then deploy retrained weights
 * as a second bundle on a second server, printing each server's stats
 * (QPS, global and per-task latency percentiles, batch occupancy,
 * cache hit rate).
 *
 * Run time: a second or two.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "base/statistics.h"
#include "core/granite_model.h"
#include "dataset/block_source.h"
#include "dataset/dataset.h"
#include "model/checkpoint.h"
#include "serve/inference_server.h"
#include "train/trainer.h"

namespace {

using granite::serve::InferenceServer;
using granite::serve::InferenceServerConfig;

granite::core::GraniteConfig DemoModelConfig(double mean_target,
                                             double mean_instructions) {
  granite::core::GraniteConfig config =
      granite::core::GraniteConfig().WithEmbeddingSize(16);
  config.message_passing_iterations = 2;
  config.decoder_output_bias_init =
      static_cast<float>(mean_target / mean_instructions);
  return config;
}

/** Trains `model` in place for `steps` steps. */
void Train(granite::model::ThroughputPredictor& model,
           const granite::dataset::BlockSource& data, int steps) {
  granite::train::TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = 16;
  config.target_scale = 100.0;
  config.validation_every = 0;
  granite::model::ThroughputPredictor* raw = &model;
  granite::train::Trainer trainer(
      [raw](granite::ml::Tape& tape,
            const std::vector<const granite::assembly::BasicBlock*>& blocks) {
        return raw->ForwardGraphsOrBlocks(tape, &blocks, nullptr);
      },
      &model.parameters(), config);
  trainer.Train(data, granite::dataset::Dataset());
}

/** Four client threads submit 1500 requests each for blocks of the hot
 * set and wait for every answer; then `server` is shut down and its
 * stats printed. */
void ServeTraffic(
    const char* label, InferenceServer& server,
    const std::vector<const granite::assembly::BasicBlock*>& hot_set) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 1500;
  std::printf("serving %d requests from %d client threads on the %s "
              "server...\n",
              kClients * kRequestsPerClient, kClients, label);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &hot_set, c] {
      std::vector<std::future<double>> futures;
      futures.reserve(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        auto future =
            server.Submit(hot_set[(c * 13 + r) % hot_set.size()], 0);
        if (future.has_value()) futures.push_back(std::move(*future));
      }
      for (std::future<double>& future : futures) future.get();
    });
  }
  for (std::thread& client : clients) client.join();
  server.Shutdown();
  std::printf("%s server stats:\n%s\n", label, server.StatsString().c_str());
}

}  // namespace

int main() {
  std::printf("== GRANITE serving demo ==\n\n");

  // A small synthetic corpus stands in for a production block stream.
  granite::dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 400;
  synthesis.seed = 21;
  granite::dataset::Dataset data =
      granite::dataset::SynthesizeDataset(synthesis);
  const granite::dataset::IndexSplit split =
      granite::dataset::SplitIndices(data.size(), 0.8, 3);
  const granite::dataset::SubsetBlockSource train_set(&data, split.first);
  const double mean_target =
      granite::Mean(train_set.Throughputs(
          granite::uarch::Microarchitecture::kIvyBridge)) /
      100.0;

  granite::graph::Vocabulary vocabulary =
      granite::graph::Vocabulary::CreateDefault();
  granite::core::GraniteConfig model_config =
      DemoModelConfig(mean_target, 6.0);
  granite::core::GraniteModel trained(&vocabulary, model_config);
  std::printf("training a %zu-weight model on %zu blocks...\n",
              trained.parameters().TotalWeights(), train_set.size());
  Train(trained, train_set, 120);

  // Export the trained model as a checkpoint bundle and reload it — the
  // serving process needs only the artifact path, exactly like a
  // production rollout picking up a model from a registry.
  const std::string bundle_path =
      (std::filesystem::temp_directory_path() / "serve_demo.gmb").string();
  granite::model::SaveModel(trained, bundle_path);
  std::unique_ptr<granite::model::ThroughputPredictor> model =
      granite::model::LoadModel(bundle_path);
  std::printf("serving checkpoint bundle %s (%s model)\n", bundle_path.c_str(),
              std::string(granite::model::ModelKindName(model->kind()))
                  .c_str());

  // The server: 2 draining workers, batches of up to 16 requests
  // coalesced within a 2 ms window, a bounded queue that blocks
  // producers when full, and a 512-entry prediction cache.
  InferenceServerConfig server_config;
  server_config.num_workers = 2;
  server_config.max_batch_size = 16;
  server_config.batch_window = std::chrono::microseconds{2000};
  server_config.queue_capacity = 256;
  server_config.overflow_policy = granite::serve::OverflowPolicy::kBlock;
  server_config.prediction_cache_capacity = 512;
  InferenceServer server(model.get(), server_config);

  // Four clients issue requests for a hot set of blocks — the repeats a
  // BHive-style corpus would produce.
  std::vector<const granite::assembly::BasicBlock*> hot_set;
  for (const std::size_t index : split.second) {
    hot_set.push_back(&data[index].block);
  }
  ServeTraffic("first", server, hot_set);

  // Train an improved model offline and deploy it the way a rollout
  // ships any model: export a bundle, load it, and serve it from a new
  // server. A server's model never changes under it.
  granite::core::GraniteModel improved(&vocabulary, model_config);
  improved.parameters().CopyValuesFrom(trained.parameters());
  Train(improved, train_set, 60);
  granite::model::SaveModel(improved, bundle_path);
  std::unique_ptr<granite::model::ThroughputPredictor> retrained =
      granite::model::LoadModel(bundle_path);
  InferenceServer retrained_server(retrained.get(), server_config);
  ServeTraffic("second", retrained_server, hot_set);

  // The demo trains on cycles-per-iteration targets (target_scale 100),
  // so scale raw model output back to the paper's value range.
  const double example = retrained->PredictBatch({hot_set[0]}, 0)[0] * 100.0;
  std::printf("example block prediction (cycles/100 iters): %.2f\n",
              example);
  std::filesystem::remove(bundle_path);
  return 0;
}
