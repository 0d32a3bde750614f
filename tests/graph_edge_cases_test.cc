/**
 * @file
 * Edge-case tests of the graph builder: unusual but valid instruction
 * shapes that exercise corner paths of the encoding.
 */
#include "gtest/gtest.h"
#include "asm/parser.h"
#include "graph/batch.h"
#include "graph/graph_builder.h"

namespace granite::graph {
namespace {

class GraphEdgeCaseTest : public ::testing::Test {
 protected:
  GraphEdgeCaseTest()
      : vocabulary_(Vocabulary::CreateDefault()), builder_(&vocabulary_) {}

  BlockGraph Build(const char* text) {
    const auto block = assembly::ParseBasicBlock(text);
    EXPECT_TRUE(block.ok()) << block.error;
    return builder_.Build(*block.value);
  }

  Vocabulary vocabulary_;
  GraphBuilder builder_;
};

TEST_F(GraphEdgeCaseTest, EmptyBlockYieldsEmptyGraph) {
  const BlockGraph graph = builder_.Build(assembly::BasicBlock{});
  EXPECT_EQ(graph.num_nodes(), 0);
  EXPECT_EQ(graph.num_edges(), 0);
  EXPECT_EQ(graph.num_instructions(), 0);
}

TEST_F(GraphEdgeCaseTest, ZeroOperandInstruction) {
  const BlockGraph graph = Build("CDQ");
  // CDQ: mnemonic + RAX (implicit read) + RDX (implicit write).
  EXPECT_EQ(graph.num_nodes(), 3);
  EXPECT_EQ(graph.CountEdges(EdgeType::kInputOperand), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kOutputOperand), 1);
}

TEST_F(GraphEdgeCaseTest, XchgBothOperandsReadWrite) {
  const BlockGraph graph = Build("XCHG RAX, RBX");
  // Inputs: old RAX, old RBX. Outputs: new RAX, new RBX.
  EXPECT_EQ(graph.CountEdges(EdgeType::kInputOperand), 2);
  EXPECT_EQ(graph.CountEdges(EdgeType::kOutputOperand), 2);
  EXPECT_EQ(graph.CountNodes(NodeType::kRegister), 4);
}

TEST_F(GraphEdgeCaseTest, PushPopChainThroughRspAndMemory) {
  const BlockGraph graph = Build("PUSH RAX\nPOP RBX");
  // PUSH writes a memory value and a new RSP; POP reads both. The POP
  // must consume the PUSH's memory value node.
  const int pop = graph.mnemonic_nodes[1];
  bool pop_reads_pushed_memory = false;
  bool pop_reads_pushed_rsp = false;
  for (const Edge& edge : graph.edges) {
    if (edge.type != EdgeType::kInputOperand || edge.target != pop) continue;
    const Node& source = graph.nodes[edge.source];
    if (source.type == NodeType::kMemoryValue &&
        source.instruction_index == 0) {
      pop_reads_pushed_memory = true;
    }
    if (source.type == NodeType::kRegister &&
        source.instruction_index == 0) {
      pop_reads_pushed_rsp = true;
    }
  }
  EXPECT_TRUE(pop_reads_pushed_memory);
  EXPECT_TRUE(pop_reads_pushed_rsp);
}

TEST_F(GraphEdgeCaseTest, RepStringOpUsesRcx) {
  const BlockGraph graph = Build("MOV RCX, 8\nREP MOVSB");
  EXPECT_EQ(graph.CountNodes(NodeType::kPrefix), 1);
  // REP MOVSB reads RSI, RDI, memory and the loop count in RCX, and
  // writes RSI, RDI, memory and RCX, as DataFlowFor decodes it.
  const int mov = graph.mnemonic_nodes[0];
  const int movsb = graph.mnemonic_nodes[1];
  const int rcx_token = vocabulary_.TokenIndex("RCX");
  bool reads_rcx_from_mov = false;
  bool writes_rcx = false;
  int movsb_inputs = 0;
  int movsb_outputs = 0;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kInputOperand && edge.target == movsb) {
      ++movsb_inputs;
      const Node& source = graph.nodes[edge.source];
      if (source.token == rcx_token && source.instruction_index == 0) {
        reads_rcx_from_mov = true;
        bool produced_by_mov = false;
        for (const Edge& producer : graph.edges) {
          produced_by_mov |= producer.type == EdgeType::kOutputOperand &&
                             producer.source == mov &&
                             producer.target == edge.source;
        }
        EXPECT_TRUE(produced_by_mov);
      }
    }
    if (edge.type == EdgeType::kOutputOperand && edge.source == movsb) {
      ++movsb_outputs;
      writes_rcx |= graph.nodes[edge.target].token == rcx_token;
    }
  }
  EXPECT_TRUE(reads_rcx_from_mov);
  EXPECT_TRUE(writes_rcx);
  EXPECT_EQ(movsb_inputs, 4);   // RSI, RDI, memory, RCX
  EXPECT_EQ(movsb_outputs, 4);  // RSI, RDI, memory, RCX
}

TEST_F(GraphEdgeCaseTest, StringOpWithoutRepLeavesRcxAlone) {
  const BlockGraph graph = Build("MOVSB");
  const int rcx_token = vocabulary_.TokenIndex("RCX");
  for (const Node& node : graph.nodes) EXPECT_NE(node.token, rcx_token);
  EXPECT_EQ(graph.CountEdges(EdgeType::kInputOperand), 3);
  EXPECT_EQ(graph.CountEdges(EdgeType::kOutputOperand), 3);
}

TEST_F(GraphEdgeCaseTest, ShiftByClReadsRcxValue) {
  const BlockGraph graph = Build("MOV CL, 3\nSHL RAX, CL");
  const int shl = graph.mnemonic_nodes[1];
  bool reads_cl_from_mov = false;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kInputOperand && edge.target == shl &&
        graph.nodes[edge.source].instruction_index == 0) {
      reads_cl_from_mov = true;
    }
  }
  EXPECT_TRUE(reads_cl_from_mov);
}

TEST_F(GraphEdgeCaseTest, NopWithMemoryOperandBuildsAddressOnly) {
  // Multi-byte NOPs carry a memory operand that is never accessed; the
  // encoding keeps the address computation (it is part of the
  // instruction bytes) but must not create a memory value.
  const BlockGraph graph = Build("NOP DWORD PTR [RAX + RBX]");
  EXPECT_EQ(graph.CountNodes(NodeType::kAddressComputation), 1);
  // The NOP memory operand is usage kRead in the catalog; one memory
  // value node for the read is acceptable, but no *output* memory node.
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kOutputOperand) {
      EXPECT_NE(graph.nodes[edge.target].type, NodeType::kMemoryValue);
    }
  }
}

TEST_F(GraphEdgeCaseTest, LeaWithoutBaseRegister) {
  const BlockGraph graph = Build("LEA RAX, [4*RBX + 100]");
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressBase), 0);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressIndex), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressDisplacement), 1);
}

TEST_F(GraphEdgeCaseTest, AbsoluteAddressHasOnlyDisplacement) {
  const BlockGraph graph = Build("MOV RAX, QWORD PTR [1024]");
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressBase), 0);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressIndex), 0);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressDisplacement), 1);
  EXPECT_EQ(graph.CountNodes(NodeType::kMemoryValue), 1);
}

TEST_F(GraphEdgeCaseTest, SameRegisterSourceAndDestination) {
  // "SBB EAX, EAX" (paper Table 1): EAX is read twice and written once.
  const BlockGraph graph = Build("SBB EAX, EAX");
  // One live EAX value consumed (by both operand slots) + one produced.
  const int eax_token = vocabulary_.TokenIndex("EAX");
  int eax_nodes = 0;
  for (const Node& node : graph.nodes) {
    if (node.token == eax_token) ++eax_nodes;
  }
  EXPECT_EQ(eax_nodes, 2);
  // Two input edges from the same old-EAX node to the mnemonic.
  const int mnemonic = graph.mnemonic_nodes[0];
  int eax_input_edges = 0;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kInputOperand && edge.target == mnemonic &&
        graph.nodes[edge.source].token == eax_token) {
      ++eax_input_edges;
    }
  }
  EXPECT_EQ(eax_input_edges, 2);
}

TEST_F(GraphEdgeCaseTest, ThreeOperandImulImmediate) {
  const BlockGraph graph = Build("IMUL RAX, RBX, 5");
  // Inputs: RBX + immediate; outputs: RAX + EFLAGS; no RAX input (the
  // three-operand form does not read the destination).
  EXPECT_EQ(graph.CountEdges(EdgeType::kInputOperand), 2);
  EXPECT_EQ(graph.CountEdges(EdgeType::kOutputOperand), 2);
  EXPECT_EQ(graph.CountNodes(NodeType::kImmediate), 1);
}

TEST_F(GraphEdgeCaseTest, BatchOfEdgeCaseBlocksStaysConsistent) {
  std::vector<BlockGraph> graphs;
  for (const char* text :
       {"CDQ", "XCHG RAX, RBX", "PUSH RAX\nPOP RBX", "REP MOVSB",
        "IMUL RAX, RBX, 5"}) {
    graphs.push_back(Build(text));
  }
  const BatchedGraph batch = BatchGraphs(graphs, vocabulary_);
  int expected_nodes = 0;
  for (const BlockGraph& graph : graphs) expected_nodes += graph.num_nodes();
  EXPECT_EQ(batch.num_nodes, expected_nodes);
  for (int e = 0; e < batch.num_edges; ++e) {
    EXPECT_EQ(batch.node_graph[batch.edge_source[e]],
              batch.node_graph[batch.edge_target[e]]);
  }
}

}  // namespace
}  // namespace granite::graph
