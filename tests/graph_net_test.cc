/**
 * @file
 * Tests of the full GN block: shapes, residual behavior, sensitivity
 * to graph structure, and the readout-rows application's bit-identity
 * with the full update.
 */
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "core/graph_net.h"
#include "dataset/generator.h"
#include "graph/graph_builder.h"

namespace granite::core {
namespace {

class GraphNetTest : public ::testing::Test {
 protected:
  GraphNetTest()
      : vocabulary_(graph::Vocabulary::CreateDefault()),
        builder_(&vocabulary_) {}

  static assembly::BasicBlock Parse(const char* text) {
    const auto block = assembly::ParseBasicBlock(text);
    EXPECT_TRUE(block.ok()) << block.error;
    return *block.value;
  }

  graph::BatchedGraph Encode(const char* text) {
    return graph::BatchGraphs({builder_.Build(Parse(text))}, vocabulary_);
  }

  GraphNetConfig SmallConfig() {
    GraphNetConfig config;
    config.node_size = 8;
    config.edge_size = 8;
    config.global_size = 8;
    config.node_update_layers = {8};
    config.edge_update_layers = {8};
    config.global_update_layers = {8};
    return config;
  }

  GraphState InitialState(ml::Tape& tape, const graph::BatchedGraph& batch,
                          int size) {
    GraphState state;
    ml::Tensor nodes(batch.num_nodes, size);
    ml::Tensor edges(batch.num_edges, size);
    ml::Tensor globals(batch.num_graphs, size);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes.data()[i] = 0.01f * static_cast<float>(i % 17);
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
      edges.data()[i] = 0.02f * static_cast<float>(i % 13);
    }
    globals.Fill(0.1f);
    state.nodes = tape.Constant(std::move(nodes));
    state.edges = tape.Constant(std::move(edges));
    state.globals = tape.Constant(std::move(globals));
    return state;
  }

  graph::Vocabulary vocabulary_;
  graph::GraphBuilder builder_;
};

TEST_F(GraphNetTest, PreservesShapes) {
  const graph::BatchedGraph batch = Encode("MOV RAX, 1\nADD RAX, RBX");
  ml::ParameterStore store(1);
  GraphNetBlock block(&store, "gn", SmallConfig());
  ml::Tape tape;
  GraphState state = InitialState(tape, batch, 8);
  state = block.Apply(tape, batch, state);
  EXPECT_EQ(tape.value(state.nodes).rows(), batch.num_nodes);
  EXPECT_EQ(tape.value(state.nodes).cols(), 8);
  EXPECT_EQ(tape.value(state.edges).rows(), batch.num_edges);
  EXPECT_EQ(tape.value(state.globals).rows(), 1);
}

TEST_F(GraphNetTest, IteratedApplicationSharesWeights) {
  const graph::BatchedGraph batch = Encode("ADD RAX, RBX");
  ml::ParameterStore store(2);
  GraphNetBlock block(&store, "gn", SmallConfig());
  const std::size_t weights_before = store.TotalWeights();
  ml::Tape tape;
  GraphState state = InitialState(tape, batch, 8);
  for (int i = 0; i < 4; ++i) state = block.Apply(tape, batch, state);
  // No extra parameters are created by repeated application.
  EXPECT_EQ(store.TotalWeights(), weights_before);
}

TEST_F(GraphNetTest, ResidualKeepsIdentityWhenUpdatesAreZero) {
  const graph::BatchedGraph batch = Encode("ADD RAX, RBX");
  ml::ParameterStore store(3);
  GraphNetConfig config = SmallConfig();
  config.use_layer_norm = false;
  GraphNetBlock block(&store, "gn", config);
  // Zero all weights: the update networks output zero, so the residual
  // connection must reproduce the input exactly.
  for (const auto& parameter : store.parameters()) {
    parameter->value.SetZero();
  }
  ml::Tape tape;
  GraphState state = InitialState(tape, batch, 8);
  const ml::Tensor nodes_before = tape.value(state.nodes);
  state = block.Apply(tape, batch, state);
  EXPECT_TRUE(tape.value(state.nodes) == nodes_before);
}

TEST_F(GraphNetTest, WithoutResidualZeroWeightsZeroOutput) {
  const graph::BatchedGraph batch = Encode("ADD RAX, RBX");
  ml::ParameterStore store(4);
  GraphNetConfig config = SmallConfig();
  config.use_layer_norm = false;
  config.use_residual = false;
  GraphNetBlock block(&store, "gn", config);
  for (const auto& parameter : store.parameters()) {
    parameter->value.SetZero();
  }
  ml::Tape tape;
  GraphState state = InitialState(tape, batch, 8);
  state = block.Apply(tape, batch, state);
  EXPECT_TRUE(tape.value(state.nodes) ==
              ml::Tensor(batch.num_nodes, 8));
}

TEST_F(GraphNetTest, OutputDependsOnGraphStructure) {
  // Same node multiset, different wiring: the GN output must differ.
  const graph::BatchedGraph chained = Encode("ADD RAX, RBX\nADD RBX, RAX");
  const graph::BatchedGraph independent =
      Encode("ADD RAX, RBX\nADD RBX, RCX");
  ml::ParameterStore store(5);
  GraphNetBlock block(&store, "gn", SmallConfig());
  ml::Tape tape;
  GraphState state_a = InitialState(tape, chained, 8);
  GraphState state_b = InitialState(tape, independent, 8);
  // Note: node counts differ (RCX adds a node), so compare globals.
  state_a = block.Apply(tape, chained, state_a);
  state_b = block.Apply(tape, independent, state_b);
  EXPECT_FALSE(tape.value(state_a.globals)
                   .AllClose(tape.value(state_b.globals), 1e-6f));
}

TEST_F(GraphNetTest, MessagesPropagateOneHopPerIteration) {
  // In a 3-instruction chain, information from the first instruction
  // reaches the last one only after enough iterations; we verify that
  // iterating changes node states beyond the first application.
  const graph::BatchedGraph batch =
      Encode("MOV RAX, 1\nADD RAX, RBX\nADD RCX, RAX");
  ml::ParameterStore store(6);
  GraphNetBlock block(&store, "gn", SmallConfig());
  ml::Tape tape;
  GraphState state = InitialState(tape, batch, 8);
  const GraphState once = block.Apply(tape, batch, state);
  const GraphState twice = block.Apply(tape, batch, once);
  EXPECT_FALSE(tape.value(once.nodes).AllClose(tape.value(twice.nodes),
                                               1e-6f));
}

bool SameBits(const ml::Tensor& a, const ml::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** The mnemonic-node rows after two iterations, the second one updating
 * `rows`, and every parameter's gradient of a weighted sum of them. The
 * initial state is trainable, so gradients reach every input. */
struct TwoIterations {
  ml::Tensor readout;
  std::vector<ml::Tensor> grads;
};

TwoIterations RunTwoIterations(const GraphNetConfig& config,
                               const graph::BatchedGraph& batch,
                               UpdateRows rows) {
  ml::ParameterStore store(7);
  const GraphNetBlock block(&store, "gn", config);
  ml::Parameter* nodes = store.Create("nodes", batch.num_nodes, 8,
                                      ml::Initializer::kGlorotUniform);
  ml::Parameter* edges = store.Create("edges", batch.num_edges, 8,
                                      ml::Initializer::kGlorotUniform);
  ml::Parameter* globals = store.Create("globals", batch.num_graphs, 8,
                                        ml::Initializer::kGlorotUniform);
  ml::Tape tape;
  GraphState state{tape.Param(nodes), tape.Param(edges), tape.Param(globals)};
  state = block.Apply(tape, batch, state);
  const GraphState last = block.Apply(tape, batch, state, rows);
  ml::Var readout = last.nodes;
  if (rows == UpdateRows::kAll) {
    readout = tape.GatherRows(last.nodes, batch.mnemonic_node);
  }
  ml::Tensor weights(tape.value(readout).rows(), 8);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights.data()[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  tape.Backward(tape.SumAll(tape.Mul(readout, tape.Constant(weights))));
  TwoIterations result{tape.value(readout), {}};
  for (const auto& parameter : store.parameters()) {
    result.grads.push_back(parameter->grad);
  }
  return result;
}

TEST_F(GraphNetTest, ReadoutRowsMatchTheFullUpdateBitForBit) {
  // Generator blocks mixed with an empty block and a NOP, whose mnemonic
  // node has no incoming edge.
  dataset::BlockGenerator generator(dataset::GeneratorConfig(), 3);
  std::vector<graph::BlockGraph> graphs;
  for (int i = 0; i < 12; ++i) {
    if (i == 4) graphs.push_back(builder_.Build(assembly::BasicBlock{}));
    if (i == 8) graphs.push_back(builder_.Build(Parse("NOP")));
    graphs.push_back(builder_.Build(generator.Generate()));
  }
  const graph::BatchedGraph batch = graph::BatchGraphs(graphs, vocabulary_);
  ASSERT_LT(batch.readout_edge.size(),
            static_cast<std::size_t>(batch.num_edges));

  for (const bool residual : {true, false}) {
    for (const bool layer_norm : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "residual=" << residual
                                        << " layer_norm=" << layer_norm);
      GraphNetConfig config = SmallConfig();
      config.use_residual = residual;
      config.use_layer_norm = layer_norm;
      const TwoIterations full =
          RunTwoIterations(config, batch, UpdateRows::kAll);
      const TwoIterations readout =
          RunTwoIterations(config, batch, UpdateRows::kReadout);
      EXPECT_TRUE(SameBits(full.readout, readout.readout));
      ASSERT_EQ(full.grads.size(), readout.grads.size());
      for (std::size_t p = 0; p < full.grads.size(); ++p) {
        EXPECT_TRUE(SameBits(full.grads[p], readout.grads[p])) << p;
      }
    }
  }
}

TEST_F(GraphNetTest, ReadoutShapes) {
  ml::ParameterStore store(8);
  GraphNetBlock block(&store, "gn", SmallConfig());
  const graph::BlockGraph empty = builder_.Build(assembly::BasicBlock{});
  const graph::BatchedGraph normal = Encode("MOV RAX, 1\nADD RAX, RBX");
  const graph::BatchedGraph nop = Encode("NOP");
  const graph::BatchedGraph empties =
      graph::BatchGraphs({empty, empty}, vocabulary_);
  for (const graph::BatchedGraph* batch : {&normal, &nop, &empties}) {
    ml::Tape tape;
    const GraphState state = block.Apply(
        tape, *batch, InitialState(tape, *batch, 8), UpdateRows::kReadout);
    EXPECT_EQ(tape.value(state.nodes).rows(),
              static_cast<int>(batch->mnemonic_node.size()));
    EXPECT_EQ(tape.value(state.nodes).cols(), 8);
    EXPECT_EQ(tape.value(state.edges).rows(),
              static_cast<int>(batch->readout_edge.size()));
    EXPECT_FALSE(state.globals.valid());
  }
}

}  // namespace
}  // namespace granite::core
