/**
 * @file
 * Tests of graph batching and global-feature assembly.
 */
#include <cmath>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "dataset/generator.h"
#include "graph/batch.h"
#include "graph/graph_builder.h"

namespace granite::graph {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  BatchTest() : vocabulary_(Vocabulary::CreateDefault()),
                builder_(&vocabulary_) {}

  BlockGraph Build(const char* text) {
    const auto block = assembly::ParseBasicBlock(text);
    EXPECT_TRUE(block.ok()) << block.error;
    return builder_.Build(*block.value);
  }

  Vocabulary vocabulary_;
  GraphBuilder builder_;
};

TEST_F(BatchTest, SingleGraphPassesThrough) {
  const BlockGraph graph = Build("MOV RAX, 1\nADD RAX, RBX");
  const BatchedGraph batch = BatchGraphs({graph}, vocabulary_);
  EXPECT_EQ(batch.num_graphs, 1);
  EXPECT_EQ(batch.num_nodes, graph.num_nodes());
  EXPECT_EQ(batch.num_edges, graph.num_edges());
  EXPECT_EQ(batch.mnemonic_node.size(), 2u);
  for (const int g : batch.node_graph) EXPECT_EQ(g, 0);
}

TEST_F(BatchTest, TwoGraphsAreDisjoint) {
  const BlockGraph a = Build("MOV RAX, 1");
  const BlockGraph b = Build("ADD RBX, RCX\nSUB RDX, RBX");
  const BatchedGraph batch = BatchGraphs({a, b}, vocabulary_);
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.num_nodes, a.num_nodes() + b.num_nodes());
  EXPECT_EQ(batch.num_edges, a.num_edges() + b.num_edges());
  // Edges of graph 1 must reference only nodes with node_graph == 1.
  for (int e = 0; e < batch.num_edges; ++e) {
    EXPECT_EQ(batch.node_graph[batch.edge_source[e]], batch.edge_graph[e]);
    EXPECT_EQ(batch.node_graph[batch.edge_target[e]], batch.edge_graph[e]);
  }
  // Mnemonic nodes: 1 from graph 0, 2 from graph 1.
  ASSERT_EQ(batch.mnemonic_node.size(), 3u);
  EXPECT_EQ(batch.mnemonic_graph[0], 0);
  EXPECT_EQ(batch.mnemonic_graph[1], 1);
  EXPECT_EQ(batch.mnemonic_graph[2], 1);
}

TEST_F(BatchTest, GlobalFeaturesAreRelativeFrequencies) {
  const BlockGraph graph = Build("MOV RAX, 1");
  const BatchedGraph batch = BatchGraphs({graph}, vocabulary_);
  // Each row sums to (nodes + edges) / (nodes + edges) = 1 when counting
  // both token and edge-type frequencies.
  double row_sum = 0.0;
  for (int c = 0; c < batch.global_features.cols(); ++c) {
    row_sum += batch.global_features.at(0, c);
  }
  EXPECT_NEAR(row_sum, 1.0, 1e-5);
  EXPECT_EQ(batch.global_features.cols(),
            vocabulary_.size() + kNumEdgeTypes);
}

TEST_F(BatchTest, GlobalFeaturesCountCorrectTokens) {
  const BlockGraph graph = Build("MOV RAX, 1");
  const BatchedGraph batch = BatchGraphs({graph}, vocabulary_);
  const int mov_token = vocabulary_.TokenIndex("MOV");
  const float total =
      static_cast<float>(graph.num_nodes() + graph.num_edges());
  EXPECT_NEAR(batch.global_features.at(0, mov_token), 1.0f / total, 1e-6f);
  // The structural-dependency edge type does not occur in this
  // single-instruction block.
  const int structural_column =
      vocabulary_.size() +
      static_cast<int>(EdgeType::kStructuralDependency);
  EXPECT_EQ(batch.global_features.at(0, structural_column), 0.0f);
}

TEST_F(BatchTest, TokenAndTypeVectorsMatchNodes) {
  const BlockGraph a = Build("MOV RAX, 1");
  const BlockGraph b = Build("CDQ");
  const BatchedGraph batch = BatchGraphs({a, b}, vocabulary_);
  ASSERT_EQ(batch.node_token.size(),
            static_cast<std::size_t>(batch.num_nodes));
  // Node 0 of graph 0 is the MOV mnemonic.
  EXPECT_EQ(batch.node_token[0], vocabulary_.TokenIndex("MOV"));
  // The first node of graph b in the batch is the CDQ mnemonic.
  EXPECT_EQ(batch.node_token[a.num_nodes()],
            vocabulary_.TokenIndex("CDQ"));
}

TEST_F(BatchTest, BatchingOrderIsStable) {
  const BlockGraph a = Build("MOV RAX, 1");
  const BlockGraph b = Build("ADD RBX, RCX");
  const BatchedGraph first = BatchGraphs({a, b}, vocabulary_);
  const BatchedGraph second = BatchGraphs({a, b}, vocabulary_);
  EXPECT_EQ(first.node_token, second.node_token);
  EXPECT_EQ(first.edge_source, second.edge_source);
  EXPECT_TRUE(first.global_features == second.global_features);
}

TEST_F(BatchTest, ReadoutListsMatchABruteForceScan) {
  // Generator blocks with an empty block (no node) and a NOP block (a
  // mnemonic node without incoming edges) mixed in.
  dataset::BlockGenerator generator(dataset::GeneratorConfig(), 11);
  std::vector<BlockGraph> graphs;
  for (int i = 0; i < 40; ++i) {
    if (i % 13 == 3) graphs.push_back(builder_.Build(assembly::BasicBlock{}));
    if (i % 13 == 7) graphs.push_back(Build("NOP"));
    graphs.push_back(builder_.Build(generator.Generate()));
  }
  const BatchedGraph batch = BatchGraphs(graphs, vocabulary_);

  std::size_t kept = 0;
  for (int e = 0; e < batch.num_edges; ++e) {
    int slot = -1;
    for (std::size_t m = 0; m < batch.mnemonic_node.size(); ++m) {
      if (batch.mnemonic_node[m] == batch.edge_target[e]) {
        EXPECT_EQ(slot, -1) << "mnemonic node listed twice";
        slot = static_cast<int>(m);
      }
    }
    if (slot < 0) continue;
    ASSERT_LT(kept, batch.readout_edge.size());
    EXPECT_EQ(batch.readout_edge[kept], e);
    EXPECT_EQ(batch.readout_edge_source[kept], batch.edge_source[e]);
    EXPECT_EQ(batch.readout_edge_target[kept], batch.edge_target[e]);
    EXPECT_EQ(batch.readout_edge_graph[kept], batch.edge_graph[e]);
    EXPECT_EQ(batch.readout_edge_slot[kept], slot);
    ++kept;
  }
  EXPECT_EQ(batch.readout_edge.size(), kept);
  EXPECT_EQ(batch.readout_edge_source.size(), kept);
  EXPECT_EQ(batch.readout_edge_target.size(), kept);
  EXPECT_EQ(batch.readout_edge_graph.size(), kept);
  EXPECT_EQ(batch.readout_edge_slot.size(), kept);
  // Some edges are dropped and some kept.
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, static_cast<std::size_t>(batch.num_edges));
}

TEST_F(BatchTest, DegenerateBatchesHaveEmptyReadoutLists) {
  // A NOP has a mnemonic node but no edge into it; empty blocks have no
  // node at all.
  const BatchedGraph nop = BatchGraphs({Build("NOP")}, vocabulary_);
  EXPECT_EQ(nop.mnemonic_node.size(), 1u);
  EXPECT_TRUE(nop.readout_edge.empty());
  EXPECT_TRUE(nop.readout_edge_slot.empty());

  const BlockGraph empty = builder_.Build(assembly::BasicBlock{});
  const BatchedGraph empties = BatchGraphs({empty, empty}, vocabulary_);
  EXPECT_EQ(empties.num_nodes, 0);
  EXPECT_TRUE(empties.mnemonic_node.empty());
  EXPECT_TRUE(empties.readout_edge.empty());
}

}  // namespace
}  // namespace granite::graph
