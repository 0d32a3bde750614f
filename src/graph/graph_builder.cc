#include "graph/graph_builder.h"

#include <vector>

#include "asm/semantics.h"
#include "base/logging.h"

namespace granite::graph {
namespace {

using assembly::Instruction;
using assembly::InstructionSemantics;
using assembly::MemoryReference;
using assembly::Operand;
using assembly::OperandKind;
using assembly::OperandUsage;
using assembly::Register;
using assembly::SemanticsCatalog;

// Node and edge lists are reserved at these sizes per instruction.
// Default generator blocks average 4.3 nodes and 4.8 edges per
// instruction; these bounds cover about 95% and 99% of them.
constexpr std::size_t kNodesPerInstruction = 6;
constexpr std::size_t kEdgesPerInstruction = 7;

/** Mutable construction state for one block. */
class BuilderState {
 public:
  BuilderState(const Vocabulary& vocabulary, std::size_t num_instructions)
      : vocabulary_(vocabulary),
        live_register_value_(assembly::RegisterTable().size(), -1) {
    graph_.nodes.reserve(kNodesPerInstruction * num_instructions);
    graph_.edges.reserve(kEdgesPerInstruction * num_instructions);
    graph_.mnemonic_nodes.reserve(num_instructions);
  }

  BlockGraph Take() { return std::move(graph_); }

  int AddNode(NodeType type, int token, int instruction_index) {
    graph_.nodes.push_back(Node{type, token, instruction_index});
    return static_cast<int>(graph_.nodes.size()) - 1;
  }

  void AddEdge(EdgeType type, int source, int target) {
    GRANITE_CHECK(source >= 0 && source < graph_.num_nodes());
    GRANITE_CHECK(target >= 0 && target < graph_.num_nodes());
    graph_.edges.push_back(Edge{type, source, target});
  }

  /** Returns the live value node of a register, creating an unproduced
   * node when the value comes from outside the block. */
  int RegisterValueNode(Register reg) {
    int& live = live_register_value_[assembly::CanonicalRegister(reg)];
    if (live < 0) {
      live = AddNode(NodeType::kRegister, vocabulary_.RegisterToken(reg), -1);
    }
    return live;
  }

  /** Creates a fresh value node for a register write. */
  int WriteRegister(Register reg, int mnemonic_node, int instruction_index) {
    const Register canonical = assembly::CanonicalRegister(reg);
    const int node = AddNode(NodeType::kRegister,
                             vocabulary_.RegisterToken(reg),
                             instruction_index);
    AddEdge(EdgeType::kOutputOperand, mnemonic_node, node);
    live_register_value_[canonical] = node;
    return node;
  }

  /** Returns the live memory value node, creating an unproduced one when
   * no store precedes. */
  int MemoryValueNode() {
    if (live_memory_value_ < 0) {
      live_memory_value_ =
          AddNode(NodeType::kMemoryValue, vocabulary_.memory_token(), -1);
    }
    return live_memory_value_;
  }

  /** Creates a fresh memory value node for a store. */
  int WriteMemory(int mnemonic_node, int instruction_index) {
    const int node = AddNode(NodeType::kMemoryValue,
                             vocabulary_.memory_token(), instruction_index);
    AddEdge(EdgeType::kOutputOperand, mnemonic_node, node);
    live_memory_value_ = node;
    return node;
  }

  /** Builds the address-computation node of a memory reference and
   * connects its components. */
  int AddressNode(const MemoryReference& reference, int instruction_index) {
    const int node = AddNode(NodeType::kAddressComputation,
                             vocabulary_.address_token(), instruction_index);
    if (reference.base != assembly::kInvalidRegister) {
      AddEdge(EdgeType::kAddressBase, RegisterValueNode(reference.base),
              node);
    }
    if (reference.index != assembly::kInvalidRegister) {
      AddEdge(EdgeType::kAddressIndex, RegisterValueNode(reference.index),
              node);
    }
    if (reference.segment != assembly::kInvalidRegister) {
      AddEdge(EdgeType::kAddressSegment,
              RegisterValueNode(reference.segment), node);
    }
    if (reference.displacement != 0) {
      const int displacement = AddNode(
          NodeType::kImmediate, vocabulary_.immediate_token(),
          instruction_index);
      AddEdge(EdgeType::kAddressDisplacement, displacement, node);
    }
    return node;
  }

  BlockGraph& graph() { return graph_; }

 private:
  const Vocabulary& vocabulary_;
  BlockGraph graph_;
  /** Live value node per canonical register id; -1 before the first
   * read or write. */
  std::vector<int> live_register_value_;
  int live_memory_value_ = -1;
};

}  // namespace

GraphBuilder::GraphBuilder(const Vocabulary* vocabulary)
    : vocabulary_(vocabulary) {
  GRANITE_CHECK(vocabulary != nullptr);
}

BlockGraph GraphBuilder::Build(const assembly::BasicBlock& block) const {
  const Vocabulary& vocabulary = *vocabulary_;
  const SemanticsCatalog& catalog = SemanticsCatalog::Get();
  BuilderState state(vocabulary, block.instructions.size());
  int previous_mnemonic = -1;

  for (std::size_t index = 0; index < block.instructions.size(); ++index) {
    const Instruction& instruction = block.instructions[index];
    const InstructionSemantics& semantics =
        catalog.Require(instruction.mnemonic);
    const std::vector<OperandUsage>& usage =
        assembly::OperandUsageFor(semantics, instruction);
    const bool implicit_apply = assembly::ImplicitOperandsApply(
        semantics, instruction.operands.size());
    // A REP prefix turns a string operation into a loop counted in RCX,
    // which it reads and writes (as in DataFlowFor).
    const bool rep_counted =
        semantics.is_string_op && instruction.HasRepPrefix();
    const int instruction_index = static_cast<int>(index);

    // The row's token is the token of its canonical spelling; any other
    // spelling keeps its own (usually unknown) token.
    const int mnemonic_token =
        instruction.mnemonic == semantics.mnemonic
            ? vocabulary.MnemonicToken(semantics)
            : vocabulary.TokenIndex(instruction.mnemonic);
    const int mnemonic_node =
        state.AddNode(NodeType::kMnemonic, mnemonic_token, instruction_index);
    state.graph().mnemonic_nodes.push_back(mnemonic_node);

    // Prefix nodes attach to the mnemonic with a structural edge.
    for (const std::string& prefix : instruction.prefixes) {
      const int prefix_node = state.AddNode(
          NodeType::kPrefix, vocabulary.TokenIndex(prefix), instruction_index);
      state.AddEdge(EdgeType::kStructuralDependency, prefix_node,
                    mnemonic_node);
    }

    // Structural chain between consecutive instructions.
    if (previous_mnemonic >= 0) {
      state.AddEdge(EdgeType::kStructuralDependency, previous_mnemonic,
                    mnemonic_node);
    }
    previous_mnemonic = mnemonic_node;

    // ---- Inputs ----------------------------------------------------------
    for (std::size_t i = 0; i < instruction.operands.size(); ++i) {
      const Operand& operand = instruction.operands[i];
      const bool is_read = usage[i] != OperandUsage::kWrite;
      switch (operand.kind()) {
        case OperandKind::kRegister:
          if (is_read) {
            state.AddEdge(EdgeType::kInputOperand,
                          state.RegisterValueNode(operand.reg()),
                          mnemonic_node);
          }
          break;
        case OperandKind::kImmediate: {
          const int node = state.AddNode(NodeType::kImmediate,
                                         vocabulary.immediate_token(),
                                         instruction_index);
          state.AddEdge(EdgeType::kInputOperand, node, mnemonic_node);
          break;
        }
        case OperandKind::kFpImmediate: {
          const int node = state.AddNode(NodeType::kFpImmediate,
                                         vocabulary.fp_immediate_token(),
                                         instruction_index);
          state.AddEdge(EdgeType::kInputOperand, node, mnemonic_node);
          break;
        }
        case OperandKind::kMemory: {
          // The address computation is always an input, regardless of
          // whether the access is a load or a store (paper Figure 1).
          const int address =
              state.AddressNode(operand.mem(), instruction_index);
          state.AddEdge(EdgeType::kInputOperand, address, mnemonic_node);
          if (is_read) {
            state.AddEdge(EdgeType::kInputOperand, state.MemoryValueNode(),
                          mnemonic_node);
          }
          break;
        }
        case OperandKind::kAddress: {
          const int address =
              state.AddressNode(operand.mem(), instruction_index);
          state.AddEdge(EdgeType::kInputOperand, address, mnemonic_node);
          break;
        }
      }
    }
    if (implicit_apply) {
      for (Register reg : semantics.implicit_reads) {
        state.AddEdge(EdgeType::kInputOperand, state.RegisterValueNode(reg),
                      mnemonic_node);
      }
    }
    if (semantics.reads_flags) {
      state.AddEdge(EdgeType::kInputOperand,
                    state.RegisterValueNode(assembly::FlagsRegister()),
                    mnemonic_node);
    }
    if (semantics.implicit_memory_read) {
      state.AddEdge(EdgeType::kInputOperand, state.MemoryValueNode(),
                    mnemonic_node);
    }
    if (rep_counted) {
      state.AddEdge(EdgeType::kInputOperand,
                    state.RegisterValueNode(assembly::RegisterByName("RCX")),
                    mnemonic_node);
    }

    // ---- Outputs ---------------------------------------------------------
    for (std::size_t i = 0; i < instruction.operands.size(); ++i) {
      const Operand& operand = instruction.operands[i];
      const bool is_write = usage[i] != OperandUsage::kRead;
      if (!is_write) continue;
      switch (operand.kind()) {
        case OperandKind::kRegister:
          state.WriteRegister(operand.reg(), mnemonic_node,
                              instruction_index);
          break;
        case OperandKind::kMemory:
          state.WriteMemory(mnemonic_node, instruction_index);
          break;
        default:
          // assembly::CheckEncodable refuses such a block at every entry
          // from text, so only a block built in code can get here.
          GRANITE_PANIC("invariant violated: written operand "
                        << i << " is neither a register nor memory in "
                        << instruction.ToString());
      }
    }
    if (implicit_apply) {
      for (Register reg : semantics.implicit_writes) {
        state.WriteRegister(reg, mnemonic_node, instruction_index);
      }
    }
    if (semantics.writes_flags) {
      state.WriteRegister(assembly::FlagsRegister(), mnemonic_node,
                          instruction_index);
    }
    if (semantics.implicit_memory_write) {
      state.WriteMemory(mnemonic_node, instruction_index);
    }
    if (rep_counted) {
      state.WriteRegister(assembly::RegisterByName("RCX"), mnemonic_node,
                          instruction_index);
    }
  }
  return state.Take();
}

}  // namespace granite::graph
