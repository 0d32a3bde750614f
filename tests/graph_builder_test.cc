/**
 * @file
 * Tests of the basic-block-to-graph translation, including an exact check
 * of the paper's Figure 1 example and structural invariants verified over
 * randomly generated blocks.
 */
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "base/string_util.h"
#include "dataset/generator.h"
#include "graph/batch.h"
#include "graph/graph_builder.h"

namespace granite::graph {
namespace {

class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : vocabulary_(Vocabulary::CreateDefault()),
                       builder_(&vocabulary_) {}

  BlockGraph Build(const char* text) {
    const auto block = assembly::ParseBasicBlock(text);
    EXPECT_TRUE(block.ok()) << block.error;
    return builder_.Build(*block.value);
  }

  Vocabulary vocabulary_;
  GraphBuilder builder_;
};

// The paper's Figure 1:
//   MOV RAX, 12345
//   ADD DWORD PTR [RAX + 16], EBX
// yields 10 nodes: MOV, ADD (mnemonics); the 12345 immediate; the
// displacement immediate; RAX and EBX register values; the address
// computation; an input and an output memory value; and EFLAGS.
TEST_F(GraphBuilderTest, Figure1ExampleNodeInventory) {
  const BlockGraph graph =
      Build("MOV RAX, 12345\nADD DWORD PTR [RAX + 16], EBX");
  EXPECT_EQ(graph.num_nodes(), 10);
  EXPECT_EQ(graph.CountNodes(NodeType::kMnemonic), 2);
  EXPECT_EQ(graph.CountNodes(NodeType::kImmediate), 2);
  EXPECT_EQ(graph.CountNodes(NodeType::kRegister), 3);  // RAX, EBX, EFLAGS
  EXPECT_EQ(graph.CountNodes(NodeType::kAddressComputation), 1);
  EXPECT_EQ(graph.CountNodes(NodeType::kMemoryValue), 2);
  EXPECT_EQ(graph.num_instructions(), 2);
}

TEST_F(GraphBuilderTest, Figure1ExampleEdgeInventory) {
  const BlockGraph graph =
      Build("MOV RAX, 12345\nADD DWORD PTR [RAX + 16], EBX");
  EXPECT_EQ(graph.num_edges(), 10);
  EXPECT_EQ(graph.CountEdges(EdgeType::kStructuralDependency), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kInputOperand), 4);
  EXPECT_EQ(graph.CountEdges(EdgeType::kOutputOperand), 3);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressBase), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressDisplacement), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressIndex), 0);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressSegment), 0);
}

TEST_F(GraphBuilderTest, Figure1RaxFlowsFromMovToAddress) {
  const BlockGraph graph =
      Build("MOV RAX, 12345\nADD DWORD PTR [RAX + 16], EBX");
  // Find the RAX value node: produced by instruction 0.
  const int rax_token = vocabulary_.TokenIndex("RAX");
  int rax_node = -1;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    if (graph.nodes[i].token == rax_token) rax_node = i;
  }
  ASSERT_NE(rax_node, -1);
  EXPECT_EQ(graph.nodes[rax_node].instruction_index, 0);
  // RAX feeds the address computation of the ADD through a base edge.
  bool base_edge_found = false;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kAddressBase && edge.source == rax_node) {
      EXPECT_EQ(graph.nodes[edge.target].type,
                NodeType::kAddressComputation);
      base_edge_found = true;
    }
  }
  EXPECT_TRUE(base_edge_found);
}

TEST_F(GraphBuilderTest, InputAndOutputMemoryValuesAreDistinct) {
  const BlockGraph graph = Build("ADD DWORD PTR [RAX], EBX");
  // The read and the written memory value are different nodes (paper
  // §3.1: "they are represented as two distinct nodes").
  EXPECT_EQ(graph.CountNodes(NodeType::kMemoryValue), 2);
}

TEST_F(GraphBuilderTest, StoreToLoadDependencyThroughMemory) {
  const BlockGraph graph =
      Build("MOV QWORD PTR [RDI], RAX\nMOV RBX, QWORD PTR [RSI]");
  // The load consumes the memory value produced by the store
  // (conservative total aliasing): exactly 1 memory node is produced and
  // consumed, so only one memory value node exists.
  EXPECT_EQ(graph.CountNodes(NodeType::kMemoryValue), 1);
  const int mnemonic1 = graph.mnemonic_nodes[1];
  bool load_consumes_store = false;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kInputOperand && edge.target == mnemonic1 &&
        graph.nodes[edge.source].type == NodeType::kMemoryValue) {
      EXPECT_EQ(graph.nodes[edge.source].instruction_index, 0);
      load_consumes_store = true;
    }
  }
  EXPECT_TRUE(load_consumes_store);
}

TEST_F(GraphBuilderTest, FlagsDependencyChain) {
  // Table 1 pattern: TEST writes EFLAGS, CMOVG reads them.
  const BlockGraph graph =
      Build("TEST ECX, ECX\nMOV EAX, 1\nCMOVG EAX, ECX");
  const int eflags_token = vocabulary_.TokenIndex("EFLAGS");
  const int cmov_mnemonic = graph.mnemonic_nodes[2];
  bool cmov_reads_test_flags = false;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kInputOperand && edge.target == cmov_mnemonic &&
        graph.nodes[edge.source].token == eflags_token) {
      EXPECT_EQ(graph.nodes[edge.source].instruction_index, 0);
      cmov_reads_test_flags = true;
    }
  }
  EXPECT_TRUE(cmov_reads_test_flags);
}

TEST_F(GraphBuilderTest, RegisterAliasingConnectsSubRegisters) {
  // Writing EAX then reading RAX must hit the same value node.
  const BlockGraph graph = Build("MOV EAX, 1\nMOV QWORD PTR [RDI], RAX");
  // Exactly one EAX/RAX value node exists: written by MOV, read by the
  // store (as data) — plus RDI for the address.
  int gp_value_nodes = 0;
  for (const Node& node : graph.nodes) {
    if (node.type == NodeType::kRegister) ++gp_value_nodes;
  }
  EXPECT_EQ(gp_value_nodes, 2);  // EAX value + RDI value.
}

TEST_F(GraphBuilderTest, SsaStyleMultipleWritesToSameRegister) {
  const BlockGraph graph = Build("MOV EAX, 1\nMOV EAX, 2\nADD EBX, EAX");
  // Two distinct EAX value nodes; the ADD consumes the second one.
  const int eax_token = vocabulary_.TokenIndex("EAX");
  std::vector<int> eax_nodes;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    if (graph.nodes[i].token == eax_token) eax_nodes.push_back(i);
  }
  ASSERT_EQ(eax_nodes.size(), 2u);
  const int add_mnemonic = graph.mnemonic_nodes[2];
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kInputOperand && edge.target == add_mnemonic &&
        graph.nodes[edge.source].token == eax_token) {
      EXPECT_EQ(graph.nodes[edge.source].instruction_index, 1);
    }
  }
}

TEST_F(GraphBuilderTest, PrefixNodeAttachesToMnemonic) {
  const BlockGraph graph = Build("LOCK ADD DWORD PTR [RAX], EBX");
  EXPECT_EQ(graph.CountNodes(NodeType::kPrefix), 1);
  const int lock_token = vocabulary_.TokenIndex("LOCK");
  bool prefix_edge = false;
  for (const Edge& edge : graph.edges) {
    if (edge.type == EdgeType::kStructuralDependency &&
        graph.nodes[edge.source].token == lock_token) {
      EXPECT_EQ(graph.nodes[edge.target].type, NodeType::kMnemonic);
      prefix_edge = true;
    }
  }
  EXPECT_TRUE(prefix_edge);
}

TEST_F(GraphBuilderTest, LeaProducesAddressWithoutMemoryNode) {
  const BlockGraph graph = Build("LEA RAX, [RBX + 8*RCX + 4]");
  EXPECT_EQ(graph.CountNodes(NodeType::kAddressComputation), 1);
  EXPECT_EQ(graph.CountNodes(NodeType::kMemoryValue), 0);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressBase), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressIndex), 1);
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressDisplacement), 1);
}

TEST_F(GraphBuilderTest, SegmentOverrideEdge) {
  const BlockGraph graph = Build("MOV RAX, QWORD PTR FS:[0x28]");
  EXPECT_EQ(graph.CountEdges(EdgeType::kAddressSegment), 1);
}

TEST_F(GraphBuilderTest, ImplicitOperandsOfDiv) {
  const BlockGraph graph = Build("DIV RCX");
  // DIV reads RAX, RDX, RCX and writes RAX, RDX, EFLAGS.
  const int mnemonic = graph.mnemonic_nodes[0];
  int inputs = 0;
  int outputs = 0;
  for (const Edge& edge : graph.edges) {
    if (edge.target == mnemonic && edge.type == EdgeType::kInputOperand) {
      ++inputs;
    }
    if (edge.source == mnemonic && edge.type == EdgeType::kOutputOperand) {
      ++outputs;
    }
  }
  EXPECT_EQ(inputs, 3);
  EXPECT_EQ(outputs, 3);
}

TEST_F(GraphBuilderTest, TwoOperandImulHasNoAccumulator) {
  const BlockGraph graph = Build("IMUL RBX, RCX");
  // RBX (read+write: one input node, one output node) + RCX + EFLAGS.
  const int mnemonic = graph.mnemonic_nodes[0];
  int inputs = 0;
  for (const Edge& edge : graph.edges) {
    if (edge.target == mnemonic && edge.type == EdgeType::kInputOperand) {
      ++inputs;
    }
  }
  EXPECT_EQ(inputs, 2);  // RBX and RCX only; no RAX/RDX.
}

TEST_F(GraphBuilderTest, StructuralChainLength) {
  const BlockGraph graph = Build("MOV EAX, 1\nMOV EBX, 2\nMOV ECX, 3");
  EXPECT_EQ(graph.CountEdges(EdgeType::kStructuralDependency), 2);
}

TEST_F(GraphBuilderTest, ToDotRendersAllNodes) {
  const BlockGraph graph = Build("MOV RAX, 12345");
  const std::string dot = graph.ToDot(vocabulary_.tokens());
  EXPECT_NE(dot.find("MOV"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST_F(GraphBuilderTest, NonCanonicalMnemonicSpellingKeepsItsOwnToken) {
  // A hand-built instruction can carry a lower-case mnemonic: the catalog
  // still resolves its ADD row (so EFLAGS is written), but the mnemonic
  // node takes the token of the spelling itself, which is unknown.
  assembly::Instruction add;
  add.mnemonic = "add";
  add.operands = {assembly::Operand::Reg(assembly::RegisterByName("RAX")),
                  assembly::Operand::Reg(assembly::RegisterByName("RBX"))};
  assembly::BasicBlock block;
  block.instructions.push_back(add);
  const BlockGraph graph = builder_.Build(block);
  ASSERT_EQ(graph.num_instructions(), 1);
  EXPECT_EQ(graph.nodes[graph.mnemonic_nodes[0]].token,
            vocabulary_.TokenIndex("add"));
  EXPECT_EQ(vocabulary_.TokenIndex("add"),
            vocabulary_.TokenIndex(Vocabulary::kUnknownToken));
  EXPECT_EQ(graph.CountEdges(EdgeType::kInputOperand), 2);
  EXPECT_EQ(graph.CountEdges(EdgeType::kOutputOperand), 2);  // RAX, EFLAGS
  const int eflags_token = vocabulary_.TokenIndex("EFLAGS");
  int eflags_nodes = 0;
  for (const Node& node : graph.nodes) {
    if (node.token == eflags_token) ++eflags_nodes;
  }
  EXPECT_EQ(eflags_nodes, 1);
}

TEST(GraphBuilderCustomVocabularyTest, MissingRegistersEncodeAsUnknown) {
  const Vocabulary vocabulary(
      {"MOV", "RAX", Vocabulary::kUnknownToken, Vocabulary::kImmediateToken});
  const GraphBuilder builder(&vocabulary);
  const auto block = assembly::ParseBasicBlock("MOV RAX, RBX\nMOV ECX, 5");
  ASSERT_TRUE(block.ok()) << block.error;
  const BlockGraph graph = builder.Build(*block.value);
  std::vector<int> tokens;
  for (const Node& node : graph.nodes) tokens.push_back(node.token);
  // MOV, RBX (unknown), RAX; MOV, immediate, ECX (unknown).
  EXPECT_EQ(tokens, (std::vector<int>{0, 2, 1, 0, 3, 2}));
}

/** Structural invariants that must hold for every encodable block. */
class GraphInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphInvariantTest, InvariantsHoldOnGeneratedBlocks) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  const GraphBuilder builder(&vocabulary);
  dataset::GeneratorConfig config;
  dataset::BlockGenerator generator(config, GetParam());
  const int unknown_token =
      vocabulary.TokenIndex(Vocabulary::kUnknownToken);

  for (int iteration = 0; iteration < 40; ++iteration) {
    const assembly::BasicBlock block = generator.Generate();
    const BlockGraph graph = builder.Build(block);

    ASSERT_EQ(graph.num_instructions(),
              static_cast<int>(block.instructions.size()));
    EXPECT_GT(graph.num_nodes(), 0);

    // Every token must be in the vocabulary (no unknowns).
    for (const Node& node : graph.nodes) {
      EXPECT_NE(node.token, unknown_token)
          << "unknown token in graph of\n" << block.ToString();
    }

    // Value nodes have at most one producer (SSA property), and producer
    // edges always run mnemonic -> value.
    std::map<int, int> producers;
    for (const Edge& edge : graph.edges) {
      ASSERT_GE(edge.source, 0);
      ASSERT_LT(edge.source, graph.num_nodes());
      ASSERT_GE(edge.target, 0);
      ASSERT_LT(edge.target, graph.num_nodes());
      switch (edge.type) {
        case EdgeType::kOutputOperand:
          EXPECT_EQ(graph.nodes[edge.source].type, NodeType::kMnemonic);
          EXPECT_TRUE(graph.nodes[edge.target].type == NodeType::kRegister ||
                      graph.nodes[edge.target].type ==
                          NodeType::kMemoryValue);
          ++producers[edge.target];
          break;
        case EdgeType::kInputOperand:
          EXPECT_NE(graph.nodes[edge.source].type, NodeType::kMnemonic);
          EXPECT_EQ(graph.nodes[edge.target].type, NodeType::kMnemonic);
          break;
        case EdgeType::kAddressBase:
        case EdgeType::kAddressIndex:
        case EdgeType::kAddressSegment:
          EXPECT_EQ(graph.nodes[edge.source].type, NodeType::kRegister);
          EXPECT_EQ(graph.nodes[edge.target].type,
                    NodeType::kAddressComputation);
          break;
        case EdgeType::kAddressDisplacement:
          EXPECT_EQ(graph.nodes[edge.source].type, NodeType::kImmediate);
          EXPECT_EQ(graph.nodes[edge.target].type,
                    NodeType::kAddressComputation);
          break;
        case EdgeType::kStructuralDependency:
          EXPECT_EQ(graph.nodes[edge.target].type, NodeType::kMnemonic);
          break;
      }
    }
    for (const auto& [node, count] : producers) {
      (void)node;
      EXPECT_EQ(count, 1);
    }

    // Mnemonic chain: instructions-1 structural edges between mnemonic
    // nodes (prefix edges add more).
    int chain_edges = 0;
    for (const Edge& edge : graph.edges) {
      if (edge.type == EdgeType::kStructuralDependency &&
          graph.nodes[edge.source].type == NodeType::kMnemonic) {
        ++chain_edges;
      }
    }
    EXPECT_EQ(chain_edges,
              std::max(0, graph.num_instructions() - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphInvariantTest,
                         ::testing::Values(11, 22, 33, 44));

uint64_t HashInts(uint64_t hash, const std::vector<int>& values) {
  return Fnv1a(hash, std::string_view(
                         reinterpret_cast<const char*>(values.data()),
                         values.size() * sizeof(int)));
}

/**
 * Pins the encoding bit for bit: a digest of the graphs of 2,000
 * default-generator blocks (node type, token and instruction index;
 * edges; mnemonic nodes) and of their BatchGraphs global features in
 * batches of 16. Token ids, graph shape and the relative-frequency
 * bytes all feed the model, so a change here moves every prediction of
 * every trained bundle.
 */
TEST(GraphEncodingGoldenTest, GeneratorEncodingDigest) {
  const Vocabulary vocabulary = Vocabulary::CreateDefault();
  const GraphBuilder builder(&vocabulary);
  dataset::BlockGenerator generator(dataset::GeneratorConfig{}, 2024);
  uint64_t digest = kFnvOffsetBasis;
  std::vector<BlockGraph> batch;
  for (int i = 0; i < 2000; ++i) {
    BlockGraph graph = builder.Build(generator.Generate());
    std::vector<int> values;
    for (const Node& node : graph.nodes) {
      values.insert(values.end(), {static_cast<int>(node.type), node.token,
                                   node.instruction_index});
    }
    for (const Edge& edge : graph.edges) {
      values.insert(values.end(),
                    {static_cast<int>(edge.type), edge.source, edge.target});
    }
    values.insert(values.end(), graph.mnemonic_nodes.begin(),
                  graph.mnemonic_nodes.end());
    values.push_back(-1);  // block separator
    digest = HashInts(digest, values);
    batch.push_back(std::move(graph));
    if (batch.size() == 16) {
      const BatchedGraph batched = BatchGraphs(batch, vocabulary);
      const ml::Tensor& features = batched.global_features;
      digest = Fnv1a(digest, std::string_view(
                                 reinterpret_cast<const char*>(
                                     features.data()),
                                 features.size() * sizeof(float)));
      batch.clear();
    }
  }
  ASSERT_TRUE(batch.empty());
  EXPECT_EQ(digest, 0x3D24BC9DD41625F0ull);
}

}  // namespace
}  // namespace granite::graph
