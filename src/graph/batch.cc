#include "graph/batch.h"

#include "base/logging.h"

namespace granite::graph {

BatchedGraph BatchGraphs(const std::vector<BlockGraph>& graphs,
                         const Vocabulary& vocabulary) {
  GRANITE_CHECK(!graphs.empty());
  BatchedGraph batch;
  batch.num_graphs = static_cast<int>(graphs.size());
  const int vocabulary_size = vocabulary.size();
  const int global_width = vocabulary_size + kNumEdgeTypes;
  batch.global_features = ml::Tensor(batch.num_graphs, global_width);

  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  std::size_t total_mnemonics = 0;
  for (const BlockGraph& graph : graphs) {
    total_nodes += graph.nodes.size();
    total_edges += graph.edges.size();
    total_mnemonics += graph.mnemonic_nodes.size();
  }
  batch.node_token.reserve(total_nodes);
  batch.node_graph.reserve(total_nodes);
  batch.edge_type.reserve(total_edges);
  batch.edge_source.reserve(total_edges);
  batch.edge_target.reserve(total_edges);
  batch.edge_graph.reserve(total_edges);
  batch.mnemonic_node.reserve(total_mnemonics);
  batch.mnemonic_graph.reserve(total_mnemonics);
  batch.readout_edge.reserve(total_edges);
  batch.readout_edge_source.reserve(total_edges);
  batch.readout_edge_target.reserve(total_edges);
  batch.readout_edge_graph.reserve(total_edges);
  batch.readout_edge_slot.reserve(total_edges);

  // Columns of the current graph's row with a nonzero count.
  std::vector<int> touched;
  // Slot in mnemonic_node of each node of the current graph; -1 for a
  // node that is not a mnemonic node.
  std::vector<int> mnemonic_slot;
  int node_offset = 0;
  for (int g = 0; g < batch.num_graphs; ++g) {
    const BlockGraph& graph = graphs[g];
    float* row = batch.global_features.row_data(g);
    touched.clear();
    const auto count = [&](int column) {
      GRANITE_CHECK(column >= 0 && column < global_width);
      if (row[column] == 0.0f) touched.push_back(column);
      row[column] += 1.0f;
    };
    for (const Node& node : graph.nodes) {
      batch.node_token.push_back(node.token);
      batch.node_graph.push_back(g);
      count(node.token);
    }
    mnemonic_slot.assign(graph.nodes.size(), -1);
    for (const int mnemonic : graph.mnemonic_nodes) {
      GRANITE_CHECK_EQ(mnemonic_slot[mnemonic], -1);
      mnemonic_slot[mnemonic] = static_cast<int>(batch.mnemonic_node.size());
      batch.mnemonic_node.push_back(node_offset + mnemonic);
      batch.mnemonic_graph.push_back(g);
    }
    for (const Edge& edge : graph.edges) {
      const int slot = mnemonic_slot[edge.target];
      if (slot >= 0) {
        batch.readout_edge.push_back(static_cast<int>(batch.edge_type.size()));
        batch.readout_edge_source.push_back(node_offset + edge.source);
        batch.readout_edge_target.push_back(node_offset + edge.target);
        batch.readout_edge_graph.push_back(g);
        batch.readout_edge_slot.push_back(slot);
      }
      batch.edge_type.push_back(static_cast<int>(edge.type));
      batch.edge_source.push_back(node_offset + edge.source);
      batch.edge_target.push_back(node_offset + edge.target);
      batch.edge_graph.push_back(g);
      count(vocabulary_size + static_cast<int>(edge.type));
    }
    // Normalize counts into relative frequencies (paper §3.2: "the
    // relative frequencies of the tokens and edge types used in the
    // graph"). Untouched columns stay +0, which is +0 / total.
    const float total =
        static_cast<float>(graph.num_nodes() + graph.num_edges());
    if (total > 0.0f) {
      for (const int column : touched) row[column] /= total;
    }
    node_offset += graph.num_nodes();
  }
  batch.num_nodes = node_offset;
  batch.num_edges = static_cast<int>(batch.edge_type.size());
  return batch;
}

}  // namespace granite::graph
