/**
 * @file
 * Batching of block graphs into one disjoint-union graph.
 *
 * The GNN processes a whole training batch (100 blocks in the paper) as a
 * single graph whose connected components are the individual blocks, the
 * same strategy used by DeepMind's Graph Nets GraphsTuple. Per-graph
 * global features hold the relative frequencies of tokens and edge types
 * (paper §3.2).
 */
#ifndef GRANITE_GRAPH_BATCH_H_
#define GRANITE_GRAPH_BATCH_H_

#include <vector>

#include "graph/block_graph.h"
#include "graph/vocabulary.h"
#include "ml/tensor.h"

namespace granite::graph {

/** A batch of block graphs flattened into one graph. */
struct BatchedGraph {
  int num_nodes = 0;
  int num_edges = 0;
  int num_graphs = 0;

  /** Vocabulary index per node. */
  std::vector<int> node_token;
  /** Edge type index per edge. */
  std::vector<int> edge_type;
  /** Endpoint node indices per edge (into the batched node list). */
  std::vector<int> edge_source;
  std::vector<int> edge_target;
  /** Owning graph per node / edge. */
  std::vector<int> node_graph;
  std::vector<int> edge_graph;
  /** Batched node indices of instruction mnemonic nodes and their owning
   * graph (used by the per-instruction decoder, paper §3.3). */
  std::vector<int> mnemonic_node;
  std::vector<int> mnemonic_graph;
  /**
   * Readout lists: the edges whose target is a mnemonic node, the only
   * edges the last message-passing iteration updates (the decoders read
   * nothing else; see core/graph_net.h). Per kept edge, in ascending edge
   * id: its id, its source and target node, its owning graph, and its
   * target's slot in `mnemonic_node`.
   */
  std::vector<int> readout_edge;
  std::vector<int> readout_edge_source;
  std::vector<int> readout_edge_target;
  std::vector<int> readout_edge_graph;
  std::vector<int> readout_edge_slot;
  /**
   * Initial global feature per graph: [num_graphs, vocab_size +
   * kNumEdgeTypes], the relative frequencies of node tokens and edge
   * types in the graph.
   */
  ml::Tensor global_features;
};

/** Flattens `graphs` into one BatchedGraph. */
BatchedGraph BatchGraphs(const std::vector<BlockGraph>& graphs,
                         const Vocabulary& vocabulary);

}  // namespace granite::graph

#endif  // GRANITE_GRAPH_BATCH_H_
