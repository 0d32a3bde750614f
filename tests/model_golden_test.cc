/**
 * @file
 * Golden digests of what the GRANITE model computes: the all-task
 * predictions of a fixed block set, and the parameters after a short
 * data-parallel training run. Both are taken for 1, 2 and 3
 * message-passing iterations, with the residual connections and the
 * layer normalization each also switched off, and fold into FNV-1a
 * digests. Every kernel backend and ISA copy gives the same bits
 * (ml/kernels/kernel_backend.h), so the digests hold on any x86-64 host;
 * a change to any predicted or trained bit moves one.
 */
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "asm/parser.h"
#include "base/string_util.h"
#include "core/granite_model.h"
#include "dataset/dataset.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "train/trainer.h"

namespace granite {
namespace {

/** One model variant: message-passing depth and the two ablations. */
struct Variant {
  int iterations;
  bool use_residual;
  bool use_layer_norm;
};

/** Depths 1-3, each with everything on, then without residuals, then
 * without layer norm: variant v has 1 + v / 3 iterations. */
std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  for (int iterations = 1; iterations <= 3; ++iterations) {
    variants.push_back({iterations, true, true});
    variants.push_back({iterations, false, true});
    variants.push_back({iterations, true, false});
  }
  return variants;
}

core::GraniteConfig VariantConfig(const Variant& variant) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(16);
  config.message_passing_iterations = variant.iterations;
  config.use_residual = variant.use_residual;
  config.use_layer_norm = variant.use_layer_norm;
  config.num_tasks = 3;
  config.decoder_output_bias_init = 0.5f;
  return config;
}

template <typename T>
std::uint64_t FoldBits(std::uint64_t digest, T value) {
  char bits[sizeof(value)];
  std::memcpy(bits, &value, sizeof(value));
  return Fnv1a(digest, {bits, sizeof(bits)});
}

/** ~500 generator blocks followed by an empty block and a NOP block, so
 * the last batch mixes normal blocks with a graph that has no node and
 * one whose instruction has no incoming edge. */
std::vector<assembly::BasicBlock> GoldenBlocks() {
  dataset::BlockGenerator generator(dataset::GeneratorConfig(), 2024);
  std::vector<assembly::BasicBlock> blocks = generator.GenerateMany(500);
  blocks.push_back(assembly::BasicBlock{});
  blocks.push_back(*assembly::ParseBasicBlock("NOP").value);
  return blocks;
}

std::uint64_t PredictionDigest(
    const core::GraniteModel& model,
    const std::vector<assembly::BasicBlock>& blocks) {
  constexpr std::size_t kBatchSize = 16;
  std::uint64_t digest = kFnvOffsetBasis;
  for (std::size_t begin = 0; begin < blocks.size(); begin += kBatchSize) {
    std::vector<const assembly::BasicBlock*> batch;
    for (std::size_t i = begin; i < blocks.size() && i < begin + kBatchSize;
         ++i) {
      batch.push_back(&blocks[i]);
    }
    for (const std::vector<double>& row : model.PredictBatchAllTasks(batch)) {
      for (const double prediction : row) digest = FoldBits(digest, prediction);
    }
  }
  return digest;
}

std::uint64_t ParameterDigest(const ml::ParameterStore& store) {
  std::uint64_t digest = kFnvOffsetBasis;
  for (const auto& parameter : store.parameters()) {
    digest = Fnv1a(digest, parameter->name);
    const ml::Tensor& value = parameter->value;
    for (std::size_t i = 0; i < value.size(); ++i) {
      digest = FoldBits(digest, value.data()[i]);
    }
  }
  return digest;
}

/** Trains `model` for 10 steps on 2 workers through the prefetched,
 * pre-encoded-graph path the runners use. */
void TrainTenSteps(core::GraniteModel& model) {
  dataset::SynthesisConfig synthesis;
  synthesis.num_blocks = 64;
  synthesis.seed = 5;
  const dataset::Dataset data = dataset::SynthesizeDataset(synthesis);

  train::TrainerConfig config;
  config.num_steps = 10;
  config.batch_size = 16;
  config.num_workers = 2;
  config.prefetch = true;
  config.validation_every = 0;
  config.target_scale = 100.0;
  config.tasks = {uarch::Microarchitecture::kIvyBridge,
                  uarch::Microarchitecture::kHaswell,
                  uarch::Microarchitecture::kSkylake};
  core::GraniteModel* raw = &model;
  train::Trainer trainer(
      [raw](ml::Tape& tape,
            const std::vector<const assembly::BasicBlock*>& blocks) {
        return raw->Forward(tape, blocks);
      },
      &model.parameters(), config);
  trainer.SetGraphPath(
      [raw](ml::Tape& tape, const graph::BatchedGraph& batch) {
        return raw->ForwardGraphs(tape, batch);
      },
      [raw](const std::vector<const assembly::BasicBlock*>& blocks) {
        return raw->EncodeBlocks(blocks);
      });
  trainer.Train(data, dataset::Dataset());
}

TEST(ModelGoldenTest, PredictionDigests) {
  constexpr std::uint64_t kExpected[] = {
      0x59ca83c002d6e8b1ull, 0x92c0406b6fbf993cull, 0x53060f561811a085ull,
      0x11c557d7f0d0d407ull, 0xf39c747fd98bfe6dull, 0xf680d82709ffc5eaull,
      0xae27644c3f903e1full, 0xa1b1d05e59e3174bull, 0xe4557ab744919755ull,
  };
  const graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  const std::vector<assembly::BasicBlock> blocks = GoldenBlocks();
  const std::vector<Variant> variants = Variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE(v);
    const core::GraniteModel model(&vocabulary, VariantConfig(variants[v]));
    EXPECT_EQ(PredictionDigest(model, blocks), kExpected[v]);
  }
}

TEST(ModelGoldenTest, TrainedParameterDigests) {
  constexpr std::uint64_t kExpected[] = {
      0x0a9f6cf9957b6a73ull, 0x239721fc4b320d8full, 0x29732f9255d7e62aull,
      0x38c0770a6337de67ull, 0xb76fe9f026105b65ull, 0x8ceb9025d3a69810ull,
      0x747ace0850673e67ull, 0xc7a17495d59512b9ull, 0x809499cf0c7948b8ull,
  };
  const graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  const std::vector<Variant> variants = Variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE(v);
    core::GraniteModel model(&vocabulary, VariantConfig(variants[v]));
    TrainTenSteps(model);
    EXPECT_EQ(ParameterDigest(model.parameters()), kExpected[v]);
  }
}

}  // namespace
}  // namespace granite
