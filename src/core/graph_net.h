/**
 * @file
 * The "full GN block" (Battaglia et al. 2018, §4.2 / Algorithm 1) used by
 * GRANITE for message passing (paper §3.2).
 *
 * One application of the block performs:
 *   e'_k = phi_e([e_k; v_src(k); v_dst(k); u_g(k)]) + e_k
 *   v'_i = phi_v([v_i; sum of incoming e'_k; u_g(i)]) + v_i
 *   u'_g = phi_u([u_g; sum of e'_k in g; sum of v'_i in g]) + u_g
 * where each phi is a multi-layer feed-forward ReLU network with layer
 * normalization at its input, and the trailing additions are the residual
 * connections the paper ablates in §5.2. The same block (same weights) is
 * applied for all message-passing iterations.
 *
 * The decoders read only the mnemonic nodes (paper §3.3), so the last
 * application computes only what reaches them (UpdateRows::kReadout):
 * e'_k for the edges k whose target is a mnemonic node, v'_i for the
 * mnemonic nodes i (their incoming sums run over exactly those edges),
 * and no u'_g. Every kernel computes a row independently of the others,
 * and the rows it skips would only have received zero adjoints, so the
 * readout rows and every parameter gradient keep their bits.
 */
#ifndef GRANITE_CORE_GRAPH_NET_H_
#define GRANITE_CORE_GRAPH_NET_H_

#include <string>
#include <vector>

#include "graph/batch.h"
#include "ml/layers.h"
#include "ml/parameter.h"
#include "ml/tape.h"

namespace granite::core {

/** Sizes and options of the GN block. */
struct GraphNetConfig {
  int node_size = 256;
  int edge_size = 256;
  int global_size = 256;
  /** Hidden layer widths of the three update networks (Table 4: 2x256). */
  std::vector<int> node_update_layers = {256, 256};
  std::vector<int> edge_update_layers = {256, 256};
  std::vector<int> global_update_layers = {256, 256};
  /** Layer normalization at update-network inputs (ablated in §5.2). */
  bool use_layer_norm = true;
  /** Residual connections around the update networks. */
  bool use_residual = true;
};

/** The embeddings flowing through message passing. */
struct GraphState {
  ml::Var nodes;    ///< [num_nodes, node_size]
  ml::Var edges;    ///< [num_edges, edge_size]
  ml::Var globals;  ///< [num_graphs, global_size]
};

/** The rows one application of the GN block updates. */
enum class UpdateRows {
  /** Every edge, node and global. */
  kAll,
  /** Only what the readout reads: the edges into mnemonic nodes, the
   * mnemonic nodes, no global (graph::BatchedGraph's readout lists). */
  kReadout,
};

/** One full GN block with shared weights across iterations. */
class GraphNetBlock {
 public:
  GraphNetBlock(ml::ParameterStore* store, const std::string& name,
                const GraphNetConfig& config);

  /**
   * Applies one message-passing iteration to the full `state`. With
   * UpdateRows::kReadout the result holds only the updated rows: `nodes`
   * is [mnemonic_node.size(), node_size] in mnemonic_node order, `edges`
   * is [readout_edge.size(), edge_size] in readout_edge order, and
   * `globals` is left unset.
   */
  GraphState Apply(ml::Tape& tape, const graph::BatchedGraph& batch,
                   const GraphState& state,
                   UpdateRows rows = UpdateRows::kAll) const;

 private:
  GraphNetConfig config_;
  std::unique_ptr<ml::Mlp> edge_update_;
  std::unique_ptr<ml::Mlp> node_update_;
  std::unique_ptr<ml::Mlp> global_update_;
};

}  // namespace granite::core

#endif  // GRANITE_CORE_GRAPH_NET_H_
