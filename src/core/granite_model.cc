#include "core/granite_model.h"

#include <utility>

#include "base/logging.h"

namespace granite::core {

GraniteConfig GraniteConfig::WithEmbeddingSize(int size) const {
  GraniteConfig scaled = *this;
  scaled.node_embedding_size = size;
  scaled.edge_embedding_size = size;
  scaled.global_embedding_size = size;
  scaled.node_update_layers = model::ScaledLayers(node_update_layers, size);
  scaled.edge_update_layers = model::ScaledLayers(edge_update_layers, size);
  scaled.global_update_layers =
      model::ScaledLayers(global_update_layers, size);
  scaled.decoder_layers = model::ScaledLayers(decoder_layers, size);
  return scaled;
}

GraniteModel::GraniteModel(std::unique_ptr<graph::Vocabulary> vocabulary,
                           const GraniteConfig& config)
    : GraniteModel(vocabulary.get(), config) {
  owned_vocabulary_ = std::move(vocabulary);
}

GraniteModel::GraniteModel(const graph::Vocabulary* vocabulary,
                           const GraniteConfig& config)
    : ThroughputPredictor(&ml::GetKernelBackend(config.kernel_backend)),
      vocabulary_(vocabulary),
      config_(config),
      parameters_(std::make_unique<ml::ParameterStore>(config.seed)),
      builder_(vocabulary) {
  GRANITE_CHECK(vocabulary != nullptr);
  GRANITE_CHECK_GE(config.num_tasks, 1);
  GRANITE_CHECK_GE(config.message_passing_iterations, 1);

  node_embedding_ = std::make_unique<ml::Embedding>(
      parameters_.get(), "node_embedding", vocabulary->size(),
      config.node_embedding_size);
  edge_embedding_ = std::make_unique<ml::Embedding>(
      parameters_.get(), "edge_embedding", graph::kNumEdgeTypes,
      config.edge_embedding_size);

  const int global_input_size = vocabulary->size() + graph::kNumEdgeTypes;
  global_projection_ = parameters_->Create(
      "global_projection/weight", global_input_size,
      config.global_embedding_size, ml::Initializer::kGlorotUniform);
  global_projection_bias_ =
      parameters_->Create("global_projection/bias", 1,
                          config.global_embedding_size,
                          ml::Initializer::kZero);

  GraphNetConfig net_config;
  net_config.node_size = config.node_embedding_size;
  net_config.edge_size = config.edge_embedding_size;
  net_config.global_size = config.global_embedding_size;
  net_config.node_update_layers = config.node_update_layers;
  net_config.edge_update_layers = config.edge_update_layers;
  net_config.global_update_layers = config.global_update_layers;
  net_config.use_layer_norm = config.use_layer_norm;
  net_config.use_residual = config.use_residual;
  graph_net_ = std::make_unique<GraphNetBlock>(parameters_.get(),
                                               "graph_net", net_config);

  for (int task = 0; task < config.num_tasks; ++task) {
    ml::MlpConfig decoder_config;
    decoder_config.input_size = config.node_embedding_size;
    decoder_config.hidden_sizes = config.decoder_layers;
    decoder_config.output_size = 1;
    decoder_config.layer_norm_at_input = config.use_layer_norm;
    decoder_config.output_bias_init = config.decoder_output_bias_init;
    decoders_.push_back(std::make_unique<ml::Mlp>(
        parameters_.get(), "decoder/task" + std::to_string(task),
        decoder_config));
  }
}

graph::BatchedGraph GraniteModel::EncodeBlocks(
    const std::vector<const assembly::BasicBlock*>& blocks) const {
  std::vector<graph::BlockGraph> graphs;
  graphs.reserve(blocks.size());
  for (const assembly::BasicBlock* block : blocks) {
    GRANITE_CHECK(block != nullptr);
    graphs.push_back(builder_.Build(*block));
  }
  return graph::BatchGraphs(graphs, *vocabulary_);
}

std::vector<ml::Var> GraniteModel::Forward(
    ml::Tape& tape,
    const std::vector<const assembly::BasicBlock*>& blocks) const {
  return ForwardGraphs(tape, EncodeBlocks(blocks));
}

ml::Var GraniteModel::MnemonicEmbeddings(
    ml::Tape& tape, const graph::BatchedGraph& batch) const {
  // Initial embeddings (paper §3.2): learned per-token node embeddings,
  // learned per-type edge embeddings, projected frequency vector for the
  // global feature.
  GraphState state;
  state.nodes = node_embedding_->Lookup(tape, batch.node_token);
  state.edges = edge_embedding_->Lookup(tape, batch.edge_type);
  state.globals = tape.AddRowBroadcast(
      tape.MatMul(tape.Constant(batch.global_features),
                  tape.Param(global_projection_)),
      tape.Param(global_projection_bias_));

  for (int iteration = 1; iteration < config_.message_passing_iterations;
       ++iteration) {
    state = graph_net_->Apply(tape, batch, state);
  }
  // The last iteration updates only the rows the decoders read; its
  // nodes are the mnemonic-node embeddings in mnemonic_node order.
  return graph_net_->Apply(tape, batch, state, UpdateRows::kReadout).nodes;
}

std::vector<ml::Var> GraniteModel::ForwardGraphs(
    ml::Tape& tape, const graph::BatchedGraph& batch) const {
  num_forward_passes_.fetch_add(1, std::memory_order_relaxed);
  // Per-instruction decoding (§3.3): the decoder maps each mnemonic
  // node's embedding to the instruction's contribution; the block
  // prediction is the sum over its instructions.
  const ml::Var mnemonic_embeddings = MnemonicEmbeddings(tape, batch);
  std::vector<ml::Var> predictions;
  predictions.reserve(decoders_.size());
  for (const auto& decoder : decoders_) {
    const ml::Var contributions = decoder->Apply(tape, mnemonic_embeddings);
    predictions.push_back(tape.SegmentSum(contributions,
                                          batch.mnemonic_graph,
                                          batch.num_graphs));
  }
  return predictions;
}

std::vector<std::vector<double>> GraniteModel::PredictPerInstruction(
    const std::vector<const assembly::BasicBlock*>& blocks, int task) const {
  GRANITE_CHECK(task >= 0 && task < config_.num_tasks);
  const graph::BatchedGraph batch = EncodeBlocks(blocks);

  // The forward pass up to the decoder, keeping the per-mnemonic-node
  // contributions instead of their per-graph sums.
  ml::Tape tape(backend(), ml::GradMode::kNone);
  const ml::Var contributions =
      decoders_[task]->Apply(tape, MnemonicEmbeddings(tape, batch));

  std::vector<std::vector<double>> result(blocks.size());
  const ml::Tensor& column = tape.value(contributions);
  for (std::size_t i = 0; i < batch.mnemonic_node.size(); ++i) {
    result[batch.mnemonic_graph[i]].push_back(
        column.at(static_cast<int>(i), 0));
  }
  return result;
}

std::vector<ml::Var> GraniteModel::ForwardGraphsOrBlocks(
    ml::Tape& tape, const std::vector<const assembly::BasicBlock*>* blocks,
    const graph::BatchedGraph* graph) const {
  GRANITE_CHECK((blocks != nullptr) != (graph != nullptr));
  return graph != nullptr ? ForwardGraphs(tape, *graph)
                          : Forward(tape, *blocks);
}

std::string GraniteModel::DescribeConfig() const {
  return model::SerializeFields(config_);
}

}  // namespace granite::core
