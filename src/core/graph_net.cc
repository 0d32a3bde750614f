#include "core/graph_net.h"

#include "base/logging.h"

namespace granite::core {

GraphNetBlock::GraphNetBlock(ml::ParameterStore* store,
                             const std::string& name,
                             const GraphNetConfig& config)
    : config_(config) {
  ml::MlpConfig edge_config;
  edge_config.input_size =
      config.edge_size + 2 * config.node_size + config.global_size;
  edge_config.hidden_sizes = config.edge_update_layers;
  edge_config.output_size = config.edge_size;
  edge_config.layer_norm_at_input = config.use_layer_norm;
  edge_update_ =
      std::make_unique<ml::Mlp>(store, name + "/edge_update", edge_config);

  ml::MlpConfig node_config;
  node_config.input_size =
      config.node_size + config.edge_size + config.global_size;
  node_config.hidden_sizes = config.node_update_layers;
  node_config.output_size = config.node_size;
  node_config.layer_norm_at_input = config.use_layer_norm;
  node_update_ =
      std::make_unique<ml::Mlp>(store, name + "/node_update", node_config);

  ml::MlpConfig global_config;
  global_config.input_size =
      config.global_size + config.edge_size + config.node_size;
  global_config.hidden_sizes = config.global_update_layers;
  global_config.output_size = config.global_size;
  global_config.layer_norm_at_input = config.use_layer_norm;
  global_update_ = std::make_unique<ml::Mlp>(store, name + "/global_update",
                                             global_config);
}

GraphState GraphNetBlock::Apply(ml::Tape& tape,
                                const graph::BatchedGraph& batch,
                                const GraphState& state,
                                UpdateRows rows) const {
  GRANITE_CHECK_EQ(tape.value(state.nodes).rows(), batch.num_nodes);
  GRANITE_CHECK_EQ(tape.value(state.edges).rows(), batch.num_edges);
  GRANITE_CHECK_EQ(tape.value(state.globals).rows(), batch.num_graphs);

  // The updated edges with their endpoints and owning graph, the updated
  // node row each one's message goes to, and the updated nodes' graphs.
  const bool readout = rows == UpdateRows::kReadout;
  const std::vector<int>& edge_source =
      readout ? batch.readout_edge_source : batch.edge_source;
  const std::vector<int>& edge_target =
      readout ? batch.readout_edge_target : batch.edge_target;
  const std::vector<int>& edge_graph =
      readout ? batch.readout_edge_graph : batch.edge_graph;
  const std::vector<int>& message_row =
      readout ? batch.readout_edge_slot : batch.edge_target;
  const std::vector<int>& node_graph =
      readout ? batch.mnemonic_graph : batch.node_graph;
  const int num_updated_nodes =
      readout ? static_cast<int>(batch.mnemonic_node.size()) : batch.num_nodes;

  // ---- Edge update -------------------------------------------------------
  // Fused gather + concat: the per-edge feature rows (edge state, source
  // node, target node, owning graph's global) are gathered straight into
  // the concatenated MLP input instead of materializing three gathered
  // temporaries first.
  const ml::Var edges =
      readout ? tape.GatherRows(state.edges, batch.readout_edge) : state.edges;
  ml::Var updated_edges = edge_update_->Apply(
      tape, tape.ConcatGathered({{edges, nullptr},
                                 {state.nodes, &edge_source},
                                 {state.nodes, &edge_target},
                                 {state.globals, &edge_graph}}));
  if (config_.use_residual) {
    updated_edges = tape.Add(updated_edges, edges);
  }

  // ---- Node update -------------------------------------------------------
  // Aggregate incoming messages: sum of updated edge features per target.
  const ml::Var incoming =
      tape.SegmentSum(updated_edges, message_row, num_updated_nodes);
  const ml::Var nodes =
      readout ? tape.GatherRows(state.nodes, batch.mnemonic_node) : state.nodes;
  ml::Var updated_nodes = node_update_->Apply(
      tape, tape.ConcatGathered({{nodes, nullptr},
                                 {incoming, nullptr},
                                 {state.globals, &node_graph}}));
  if (config_.use_residual) {
    updated_nodes = tape.Add(updated_nodes, nodes);
  }
  // Nothing reads the globals after the last application.
  if (readout) return GraphState{updated_nodes, updated_edges, ml::Var()};

  // ---- Global update -----------------------------------------------------
  const ml::Var edge_aggregate =
      tape.SegmentSum(updated_edges, batch.edge_graph, batch.num_graphs);
  const ml::Var node_aggregate =
      tape.SegmentSum(updated_nodes, batch.node_graph, batch.num_graphs);
  ml::Var updated_globals = global_update_->Apply(
      tape, tape.ConcatCols({state.globals, edge_aggregate, node_aggregate}));
  if (config_.use_residual) {
    updated_globals = tape.Add(updated_globals, state.globals);
  }

  return GraphState{updated_nodes, updated_edges, updated_globals};
}

}  // namespace granite::core
