/**
 * @file
 * The GRANITE model (paper §3): graph encoding + learned embeddings +
 * iterated full GN block + per-instruction decoder head(s).
 *
 * The model predicts, for each basic block and each target
 * microarchitecture (task), the block's inverse throughput in cycles per
 * 100 iterations. The graph network trunk is shared across tasks; each
 * task owns an independent decoder MLP applied to the final embeddings of
 * the instruction mnemonic nodes, whose scalar outputs are summed per
 * block (§3.3-3.4).
 */
#ifndef GRANITE_CORE_GRANITE_MODEL_H_
#define GRANITE_CORE_GRANITE_MODEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asm/instruction.h"
#include "core/graph_net.h"
#include "graph/graph_builder.h"
#include "graph/vocabulary.h"
#include "ml/layers.h"
#include "ml/parameter.h"
#include "ml/tape.h"
#include "model/config_io.h"
#include "model/throughput_predictor.h"

namespace granite::core {

/** Hyper-parameters of the GRANITE model (paper Table 4 defaults). */
struct GraniteConfig {
  int node_embedding_size = 256;
  int edge_embedding_size = 256;
  int global_embedding_size = 256;
  std::vector<int> node_update_layers = {256, 256};
  std::vector<int> edge_update_layers = {256, 256};
  std::vector<int> global_update_layers = {256, 256};
  std::vector<int> decoder_layers = {256, 256};
  /** Paper sweeps 1..12 (Table 7); the best setting is 8. */
  int message_passing_iterations = 8;
  /** Layer normalization in update networks and decoders (§5.2). */
  bool use_layer_norm = true;
  /** Residual connections in update networks. */
  bool use_residual = true;
  /** One decoder head per task (microarchitecture). */
  int num_tasks = 1;
  /**
   * Initial output bias of every decoder head. Since the block
   * prediction is the sum of per-instruction decoder outputs, setting
   * this to (mean target) / (mean instructions per block) makes the
   * untrained model predict the dataset mean, which shortens the
   * scaled-down training schedules dramatically.
   */
  float decoder_output_bias_init = 0.0f;
  /** RNG seed for parameter initialization. */
  uint64_t seed = 42;
  /**
   * Kernel backend executing the tapes this model creates internally
   * (Predict / PredictBatch / PredictPerInstruction), resolved at
   * construction. Forward() calls run on the caller's tape and use that
   * tape's backend.
   */
  ml::KernelBackendKind kernel_backend = ml::KernelBackendKind::kDefault;

  /** Returns a proportionally scaled-down copy (for tests/benches). */
  GraniteConfig WithEmbeddingSize(int size) const;

  /** The serialized fields in bundle order, with the bounds a loaded
   * bundle must meet (model/config_io.h). kernel_backend is a runtime
   * choice, not a model property, and is not serialized. */
  template <typename Self, typename Visitor>
  static void VisitFields(Self& config, Visitor& visitor) {
    visitor.Field("node_embedding_size", config.node_embedding_size,
                  model::kWidthRange);
    visitor.Field("edge_embedding_size", config.edge_embedding_size,
                  model::kWidthRange);
    visitor.Field("global_embedding_size", config.global_embedding_size,
                  model::kWidthRange);
    visitor.Field("node_update_layers", config.node_update_layers,
                  model::kWidthRange);
    visitor.Field("edge_update_layers", config.edge_update_layers,
                  model::kWidthRange);
    visitor.Field("global_update_layers", config.global_update_layers,
                  model::kWidthRange);
    visitor.Field("decoder_layers", config.decoder_layers,
                  model::kWidthRange);
    visitor.Field("message_passing_iterations",
                  config.message_passing_iterations, model::kCountRange);
    visitor.Field("use_layer_norm", config.use_layer_norm);
    visitor.Field("use_residual", config.use_residual);
    visitor.Field("num_tasks", config.num_tasks, model::kCountRange);
    visitor.Field("decoder_output_bias_init",
                  config.decoder_output_bias_init);
    visitor.Field("seed", config.seed);
  }
};

/** The GRANITE throughput estimation model. */
class GraniteModel : public model::ThroughputPredictor {
 public:
  /**
   * @param vocabulary Token vocabulary; must outlive the model.
   * @param config Model hyper-parameters.
   */
  GraniteModel(const graph::Vocabulary* vocabulary,
               const GraniteConfig& config);

  /** As above, but the model owns the vocabulary (checkpoint loading). */
  GraniteModel(std::unique_ptr<graph::Vocabulary> vocabulary,
               const GraniteConfig& config);

  /**
   * Runs the model on a batch of basic blocks.
   * @return One [num_blocks, 1] prediction column per task.
   */
  std::vector<ml::Var> Forward(
      ml::Tape& tape,
      const std::vector<const assembly::BasicBlock*>& blocks) const;

  /** Runs the model on pre-built graphs (lets callers cache encoding). */
  std::vector<ml::Var> ForwardGraphs(ml::Tape& tape,
                                     const graph::BatchedGraph& batch) const;

  /**
   * Unified forward entry point (model::ThroughputPredictor): dispatches
   * to ForwardGraphs when `graph` is non-null, else to Forward.
   */
  std::vector<ml::Var> ForwardGraphsOrBlocks(
      ml::Tape& tape,
      const std::vector<const assembly::BasicBlock*>* blocks,
      const graph::BatchedGraph* graph) const override;

  /** Number of GNN forward passes executed by this model (every
   * ForwardGraphs call; lets tests verify that cache hits bypass the
   * network). */
  std::size_t num_forward_passes() const {
    return num_forward_passes_.load(std::memory_order_relaxed);
  }

  /**
   * Per-instruction throughput contributions (paper §3.3: the decoder
   * "computes the contribution of the instruction to the overall
   * throughput"). Entry i of the result holds one value per instruction
   * of `blocks[i]`; their sum equals the block prediction. Useful for
   * attributing a block's cost to individual instructions, e.g. in a
   * peephole optimizer.
   */
  std::vector<std::vector<double>> PredictPerInstruction(
      const std::vector<const assembly::BasicBlock*>& blocks, int task) const;

  /** Encodes blocks into a batched graph using the model's vocabulary. */
  graph::BatchedGraph EncodeBlocks(
      const std::vector<const assembly::BasicBlock*>& blocks) const override;

  /** GRANITE supports the pre-encoded-graph training/serving fast path. */
  bool SupportsGraphEncoding() const override { return true; }

  int num_tasks() const override { return config_.num_tasks; }
  model::ModelKind kind() const override {
    return model::ModelKind::kGranite;
  }
  std::string DescribeConfig() const override;

  ml::ParameterStore& parameters() override { return *parameters_; }
  const ml::ParameterStore& parameters() const override {
    return *parameters_;
  }
  const GraniteConfig& config() const { return config_; }
  const graph::Vocabulary& vocabulary() const override {
    return *vocabulary_;
  }

 private:
  /** The trunk shared by ForwardGraphs and PredictPerInstruction:
   * initial embeddings, message passing, then the mnemonic nodes' rows. */
  ml::Var MnemonicEmbeddings(ml::Tape& tape,
                             const graph::BatchedGraph& batch) const;

  /** Set only by the owning-vocabulary constructor. */
  std::unique_ptr<graph::Vocabulary> owned_vocabulary_;
  const graph::Vocabulary* vocabulary_;
  GraniteConfig config_;
  std::unique_ptr<ml::ParameterStore> parameters_;
  graph::GraphBuilder builder_;

  std::unique_ptr<ml::Embedding> node_embedding_;
  std::unique_ptr<ml::Embedding> edge_embedding_;
  /** Linear projection of the token/edge-type frequency vector into the
   * global embedding space. */
  ml::Parameter* global_projection_ = nullptr;
  ml::Parameter* global_projection_bias_ = nullptr;
  std::unique_ptr<GraphNetBlock> graph_net_;
  /** One decoder per task (§3.4). */
  std::vector<std::unique_ptr<ml::Mlp>> decoders_;

  mutable std::atomic<std::size_t> num_forward_passes_{0};
};

}  // namespace granite::core

#endif  // GRANITE_CORE_GRANITE_MODEL_H_
