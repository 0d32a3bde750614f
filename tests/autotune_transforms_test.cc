/**
 * @file
 * Legality and oracle-direction suite for the autotune transform
 * catalog: every emitted candidate round-trips through the parser, the
 * analytical oracle agrees on the direction of the classic idioms
 * (strength reduction, zero idioms, RMW fusion), reorder legality
 * respects flag-carrying pairs (CMP/SETcc) and conservative memory
 * aliasing, and a generator-driven fuzz loop checks that reorderings
 * only ever swap hazard-free neighbors.
 */
#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "asm/semantics.h"
#include "autotune/transforms.h"
#include "base/string_util.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "uarch/throughput_model.h"

namespace granite::autotune {
namespace {

using assembly::BasicBlock;
using assembly::DataFlow;
using assembly::DataFlowFor;
using assembly::ParseBasicBlock;

BasicBlock Parse(std::string_view text) {
  assembly::ParseResult<BasicBlock> result = ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

/** All candidates whose rule name matches. */
std::vector<RewriteCandidate> CandidatesFor(const BasicBlock& block,
                                            std::string_view rule) {
  std::vector<RewriteCandidate> matching;
  for (RewriteCandidate& candidate : EnumerateCandidates(block)) {
    if (candidate.rule == rule) matching.push_back(std::move(candidate));
  }
  return matching;
}

bool HasCandidateText(const std::vector<RewriteCandidate>& candidates,
                      std::string_view block_text) {
  const BasicBlock expected = Parse(std::string(block_text));
  return std::any_of(candidates.begin(), candidates.end(),
                     [&](const RewriteCandidate& candidate) {
                       return candidate.block.ToString() ==
                              expected.ToString();
                     });
}

TEST(TransformCatalogTest, CatalogIsNonEmptyWithUniqueNames) {
  ASSERT_GE(TransformCatalog().size(), 8u);
  std::set<std::string_view> names;
  for (const Rule& rule : TransformCatalog()) {
    EXPECT_FALSE(rule.name.empty());
    EXPECT_TRUE(names.insert(rule.name).second)
        << "duplicate rule name " << rule.name;
  }
}

// The rule table in docs/AUTOTUNER.md is the catalog's only description:
// its first column names every rule, in catalog order.
TEST(TransformCatalogTest, DocsRuleTableListsTheCatalog) {
  std::ifstream docs(std::string(GRANITE_TEST_DATA_DIR) +
                     "/../../docs/AUTOTUNER.md");
  ASSERT_TRUE(docs.is_open());
  std::vector<std::string> documented;
  bool in_table = false;
  for (std::string line; std::getline(docs, line);) {
    if (line.starts_with("| Rule |")) {
      in_table = true;
    } else if (in_table && line.starts_with("| `")) {
      documented.push_back(line.substr(3, line.find('`', 3) - 3));
    } else if (in_table && !line.starts_with("| ---")) {
      break;
    }
  }
  std::vector<std::string> catalog;
  for (const Rule& rule : TransformCatalog()) {
    catalog.emplace_back(rule.name);
  }
  EXPECT_EQ(documented, catalog);
}

// Every transform in the catalog fires on at least one curated block and
// every candidate it emits round-trips through the parser — the
// catalog-wide legality invariant, checked per rule so a transform that
// silently stops firing is caught.
TEST(TransformCatalogTest, EveryTransformFiresAndRoundTrips) {
  // Curated so that each block triggers several rules; together the set
  // covers the full catalog.
  const std::vector<std::string> corpus = {
      // strength-reduce (SHL + LEA forms), strength-raise, copy-insert.
      "IMUL RAX, RAX, 8\nADD RAX, RBX\nADD RBX, RAX",
      "IMUL RCX, RDX, 5\nADD RCX, RCX\nADD RDX, RCX",
      "SHL RAX, 3\nADD RAX, RBX\nADD RBX, RAX",
      "LEA RAX, [RDX + 4*RDX]\nADD RAX, RBX",
      // zero-idiom both directions, inc-dec both directions.
      "MOV RAX, 0\nADD RAX, RBX\nINC RCX\nADD RCX, RAX",
      "XOR RAX, RAX\nADD RAX, RBX\nADD RCX, 1\nADD RCX, RAX",
      // rmw-fuse and its inverse, copy-eliminate, reorder.
      "MOV RAX, QWORD PTR [RBX]\nADD RAX, RCX\nMOV QWORD PTR [RBX], RAX\n"
      "ADD RDX, RSI",
      "ADD QWORD PTR [RBX], RCX\nMOV RDX, RSI\nADD RDI, RDX",
  };
  std::map<std::string_view, int> fired;
  for (const std::string& text : corpus) {
    const BasicBlock block = Parse(text);
    for (const RewriteCandidate& candidate : EnumerateCandidates(block)) {
      ++fired[candidate.rule];
      const std::string rendered = candidate.block.ToString();
      assembly::ParseResult<BasicBlock> reparsed = ParseBasicBlock(rendered);
      ASSERT_TRUE(reparsed.ok())
          << candidate.rule << " emitted unparseable block:\n" << rendered;
      EXPECT_EQ(reparsed.value->ToString(), rendered)
          << candidate.rule << " emitted a non-round-tripping block";
      for (const assembly::Instruction& instruction :
           candidate.block.instructions) {
        EXPECT_TRUE(assembly::IsSupportedInstruction(instruction))
            << candidate.rule << " emitted unsupported "
            << instruction.ToString() << " in:\n" << rendered;
      }
    }
  }
  for (const Rule& rule : TransformCatalog()) {
    EXPECT_GT(fired[rule.name], 0)
        << "rule " << rule.name << " never fired on the curated corpus";
  }
}

TEST(TransformCatalogTest, FpImmediateBlockRoundTrips) {
  // Six significant digits ("1.23457") would not read back as the same
  // value, and EnumerateCandidates' round-trip check would abort.
  const BasicBlock block =
      Parse("MOV RAX, 1.2345678\nADD RBX, 0\nIMUL RCX, RCX, 2");
  const std::vector<RewriteCandidate> candidates = EnumerateCandidates(block);
  ASSERT_FALSE(candidates.empty());
  for (const RewriteCandidate& candidate : candidates) {
    EXPECT_NE(candidate.block.ToString().find("MOV RAX, 1.2345678"),
              std::string::npos)
        << candidate.rule << ":\n" << candidate.block.ToString();
  }
}

/** `text` with the first memory operand of instruction `index` given
 * address scale 3, which the printer writes but the parser rejects
 * ("invalid scale: 3"). */
BasicBlock WithUnparseableScale(std::string_view text, std::size_t index) {
  BasicBlock block = Parse(text);
  for (assembly::Operand& operand : block.instructions[index].operands) {
    if (operand.kind() != assembly::OperandKind::kMemory) continue;
    assembly::MemoryReference address = operand.mem();
    address.scale = 3;
    operand = assembly::Operand::Mem(address, operand.width_bits());
    break;
  }
  EXPECT_FALSE(ParseBasicBlock(block.ToString()).ok());
  return block;
}

TEST(TransformRoundTripDeathTest, RewrittenUnparseableOperandPanics) {
  // inc-dec and rmw-split rewrite the bad instruction itself.
  const BasicBlock block =
      WithUnparseableScale("ADD QWORD PTR [RBX + 2*RCX], 1\nMOV RAX, 0", 0);
  EXPECT_DEATH(EnumerateCandidates(block), "non-round-tripping");
}

TEST(TransformRoundTripDeathTest, UntouchedUnparseableInstructionPanics) {
  // No transform rewrites a LOCK-prefixed instruction, so only the check
  // of the input's own instructions sees the bad one; the reorder and
  // zero-idiom candidates still carry it.
  const BasicBlock block = WithUnparseableScale(
      "LOCK ADD QWORD PTR [RBX + 2*RCX], 1\nMOV RAX, 0", 0);
  EXPECT_DEATH(EnumerateCandidates(block), "non-round-tripping");
}

TEST(TransformRoundTripDeathTest, MemoizedCheckStillPanics) {
  // Fill every slot of this thread's memo with checked instructions:
  // whatever slot the scale-3 instruction hashes to is taken, and it must
  // still be parsed back and refused.
  dataset::GeneratorConfig config;
  config.max_instructions = 8;
  dataset::BlockGenerator generator(config, /*seed=*/17);
  const RoundTripMemo& memo = RoundTripMemo::ForThisThread();
  for (int i = 0; i < 1000 && memo.size() < RoundTripMemo::kCapacity; ++i) {
    EnumerateCandidates(generator.Generate());
  }
  ASSERT_EQ(memo.size(), RoundTripMemo::kCapacity);
  const BasicBlock block =
      WithUnparseableScale("ADD QWORD PTR [RBX + 2*RCX], 1\nMOV RAX, 0", 0);
  EXPECT_DEATH(EnumerateCandidates(block), "non-round-tripping");
}

TEST(RoundTripMemoTest, NeverHoldsMoreThanItsCapacity) {
  dataset::GeneratorConfig config;
  config.max_instructions = 8;
  dataset::BlockGenerator generator(config, /*seed=*/31);
  const RoundTripMemo& memo = RoundTripMemo::ForThisThread();
  std::set<std::string> distinct;
  for (int iteration = 0; iteration < 300; ++iteration) {
    const BasicBlock block = generator.Generate();
    for (const RewriteCandidate& candidate : EnumerateCandidates(block)) {
      for (const assembly::Instruction& instruction :
           candidate.block.instructions) {
        distinct.insert(instruction.ToString());
      }
    }
    ASSERT_LE(memo.size(), RoundTripMemo::kCapacity);
  }
  // Far more distinct instructions passed through than the memo holds.
  EXPECT_GT(distinct.size(), 4 * RoundTripMemo::kCapacity);
  EXPECT_GT(memo.size(), RoundTripMemo::kCapacity / 2);
}

// ---- Oracle direction on the classic idioms ---------------------------

class OracleDirectionTest : public ::testing::Test {
 protected:
  uarch::ThroughputModel oracle_{uarch::Microarchitecture::kHaswell};
};

TEST_F(OracleDirectionTest, StrengthReductionImprovesDependencyChain) {
  // The IMUL sits on a loop-carried chain, so its latency is the bound;
  // LEA/SHL spellings must be strictly cheaper under the oracle.
  const BasicBlock mul = Parse("IMUL RAX, RAX, 5\nADD RAX, RBX");
  const std::vector<RewriteCandidate> reduced =
      CandidatesFor(mul, "strength-reduce");
  ASSERT_FALSE(reduced.empty());
  EXPECT_TRUE(HasCandidateText(reduced,
                               "LEA RAX, [RAX + 4*RAX]\nADD RAX, RBX"));
  const double mul_cost = oracle_.CyclesPerIteration(mul);
  for (const RewriteCandidate& candidate : reduced) {
    EXPECT_LT(oracle_.CyclesPerIteration(candidate.block), mul_cost)
        << candidate.rule;
  }
}

TEST_F(OracleDirectionTest, StrengthReducePowerOfTwoPrefersShift) {
  const BasicBlock mul = Parse("IMUL RAX, RAX, 8\nADD RAX, RBX");
  const std::vector<RewriteCandidate> reduced =
      CandidatesFor(mul, "strength-reduce");
  ASSERT_FALSE(reduced.empty());
  EXPECT_TRUE(HasCandidateText(reduced, "SHL RAX, 3\nADD RAX, RBX"));
  const double mul_cost = oracle_.CyclesPerIteration(mul);
  for (const RewriteCandidate& candidate : reduced) {
    EXPECT_LT(oracle_.CyclesPerIteration(candidate.block), mul_cost);
  }
}

TEST_F(OracleDirectionTest, StrengthRaiseIsNeverAnOracleImprovement) {
  const BasicBlock shifted = Parse("SHL RAX, 3\nADD RAX, RBX");
  const double shifted_cost = oracle_.CyclesPerIteration(shifted);
  for (const RewriteCandidate& candidate :
       CandidatesFor(shifted, "strength-raise")) {
    EXPECT_GE(oracle_.CyclesPerIteration(candidate.block), shifted_cost)
        << candidate.rule;
  }
}

TEST_F(OracleDirectionTest, ZeroIdiomNeverHurts) {
  // The oracle models XOR r, r as reading its destination (it does not
  // special-case zero idioms), so the direction claim only holds off
  // the dependency bound: on a frontend-bound block the two spellings
  // tie, hence <=, not <.
  const BasicBlock mov = Parse("MOV RAX, 0\nADD RCX, RDX\nADD RSI, RDI");
  const std::vector<RewriteCandidate> idioms =
      CandidatesFor(mov, "zero-idiom");
  ASSERT_FALSE(idioms.empty());
  EXPECT_TRUE(HasCandidateText(
      idioms, "XOR RAX, RAX\nADD RCX, RDX\nADD RSI, RDI"));
  const double mov_cost = oracle_.CyclesPerIteration(mov);
  for (const RewriteCandidate& candidate : idioms) {
    if (candidate.block.instructions[0].mnemonic == "XOR") {
      EXPECT_LE(oracle_.CyclesPerIteration(candidate.block), mov_cost);
    }
  }
}

TEST_F(OracleDirectionTest, RmwFusionReducesFrontendPressure) {
  const BasicBlock split = Parse(
      "MOV RAX, QWORD PTR [RBX]\n"
      "ADD RAX, RCX\n"
      "MOV QWORD PTR [RBX], RAX\n"
      "ADD RDX, RSI");
  const std::vector<RewriteCandidate> fused =
      CandidatesFor(split, "rmw-fuse");
  ASSERT_FALSE(fused.empty());
  EXPECT_TRUE(HasCandidateText(fused,
                               "ADD QWORD PTR [RBX], RCX\nADD RDX, RSI"));
  const uarch::ThroughputBreakdown before = oracle_.Estimate(split);
  for (const RewriteCandidate& candidate : fused) {
    const uarch::ThroughputBreakdown after =
        oracle_.Estimate(candidate.block);
    EXPECT_LT(after.total_uops, before.total_uops);
    EXPECT_LE(after.cycles_per_iteration, before.cycles_per_iteration);
  }
}

TEST_F(OracleDirectionTest, IncToAddStaysWithinOneCycle) {
  // INC <-> ADD 1 is a spelling change: the oracle may rank either
  // direction slightly better per uarch, but never by more than the
  // single extra uop's frontend share.
  const BasicBlock inc = Parse("INC RAX\nADD RAX, RBX\nADD RCX, RAX");
  for (const RewriteCandidate& candidate : CandidatesFor(inc, "inc-dec")) {
    EXPECT_NEAR(oracle_.CyclesPerIteration(candidate.block),
                oracle_.CyclesPerIteration(inc), 1.0);
  }
}

// ---- Flag-carrying pairs and the INC partial-flags exception ----------

TEST(ReorderLegalityTest, CmpSetccPairIsNeverSeparated) {
  // SETNZ consumes the flags CMP defines; any reorder moving another
  // flags-writer between them (or swapping them) is illegal.
  const BasicBlock block = Parse(
      "CMP RAX, RBX\n"
      "SETNZ CL\n"
      "ADD RDX, RSI");
  for (const RewriteCandidate& candidate : CandidatesFor(block, "reorder")) {
    const std::vector<assembly::Instruction>& instructions =
        candidate.block.instructions;
    std::size_t cmp = 0, setcc = 0;
    for (std::size_t i = 0; i < instructions.size(); ++i) {
      if (instructions[i].mnemonic == "CMP") cmp = i;
      if (instructions[i].mnemonic == "SETNZ") setcc = i;
    }
    ASSERT_LT(cmp, setcc) << candidate.block.ToString();
    for (std::size_t i = cmp + 1; i < setcc; ++i) {
      EXPECT_FALSE(DataFlowFor(instructions[i])
                       .WritesRegister(assembly::FlagsRegister()))
          << "flags writer moved into the CMP/SETNZ window:\n"
          << candidate.block.ToString();
    }
  }
}

TEST(ReorderLegalityTest, FlagWriterCannotCrossSetcc) {
  // The only hazard-free swap here is none: ADD writes flags, SETNZ
  // reads them, CMP writes them — all three pairwise conflict.
  const BasicBlock block = Parse("CMP RAX, RBX\nSETNZ CL\nADD RAX, RBX");
  const DataFlow cmp = DataFlowFor(block.instructions[0]);
  const DataFlow setcc = DataFlowFor(block.instructions[1]);
  const DataFlow add = DataFlowFor(block.instructions[2]);
  EXPECT_TRUE(Conflicts(cmp, setcc));
  EXPECT_TRUE(Conflicts(setcc, add));
  EXPECT_TRUE(Conflicts(cmp, add));
  EXPECT_TRUE(CandidatesFor(block, "reorder").empty());
}

TEST(ReorderLegalityTest, IncIsNotAFullFlagsKiller) {
  // INC preserves CF, so flags defined by CMP are *not* dead after an
  // intervening INC: the partial writer must not mask the CMP->SBB
  // dependency. (SBB reads CF.)
  const BasicBlock block = Parse(
      "CMP RAX, RBX\n"
      "INC RDX\n"
      "SBB RCX, RCX");
  EXPECT_FALSE(FlagsDeadAfter(block, 0));
}

// ---- Memory aliasing --------------------------------------------------

TEST(MayAliasTest, UnknownAndDifferingBasesConflict) {
  const BasicBlock block = Parse(
      "MOV QWORD PTR [RAX], RCX\n"
      "MOV RDX, QWORD PTR [RBX]");
  const DataFlow store = DataFlowFor(block.instructions[0]);
  const DataFlow load = DataFlowFor(block.instructions[1]);
  ASSERT_EQ(store.memory_writes.size(), 1u);
  ASSERT_EQ(load.memory_reads.size(), 1u);
  // RAX and RBX may hold the same address: must alias, so the pair
  // conflicts and reorder refuses to swap them.
  EXPECT_TRUE(MayAlias(store.memory_writes[0], load.memory_reads[0]));
  EXPECT_TRUE(Conflicts(store, load));
  EXPECT_TRUE(CandidatesFor(block, "reorder").empty());
}

TEST(MayAliasTest, SameBaseDisjointIntervalsDoNotAlias) {
  const BasicBlock block = Parse(
      "MOV QWORD PTR [RAX], RCX\n"
      "MOV RDX, QWORD PTR [RAX + 8]");
  const DataFlow store = DataFlowFor(block.instructions[0]);
  const DataFlow load = DataFlowFor(block.instructions[1]);
  EXPECT_FALSE(MayAlias(store.memory_writes[0], load.memory_reads[0]));
  EXPECT_FALSE(Conflicts(store, load));
  EXPECT_FALSE(CandidatesFor(block, "reorder").empty());
}

TEST(MayAliasTest, SameBaseOverlappingIntervalsAlias) {
  const BasicBlock block = Parse(
      "MOV QWORD PTR [RAX], RCX\n"
      "MOV EDX, DWORD PTR [RAX + 4]");
  const DataFlow store = DataFlowFor(block.instructions[0]);
  const DataFlow load = DataFlowFor(block.instructions[1]);
  EXPECT_TRUE(MayAlias(store.memory_writes[0], load.memory_reads[0]));
  EXPECT_TRUE(Conflicts(store, load));
}

TEST(MayAliasTest, ImplicitAccessesAliasEverything) {
  const BasicBlock block = Parse("PUSH RCX\nMOV RDX, QWORD PTR [RAX]");
  const DataFlow push = DataFlowFor(block.instructions[0]);
  const DataFlow load = DataFlowFor(block.instructions[1]);
  ASSERT_FALSE(push.memory_writes.empty());
  EXPECT_TRUE(push.memory_writes[0].unknown);
  EXPECT_TRUE(MayAlias(push.memory_writes[0], load.memory_reads[0]));
}

// ---- Fuzz: reorderings stay dependency-closed, everything parses ------

TEST(TransformFuzzTest, GeneratedBlocksProduceLegalCandidates) {
  dataset::GeneratorConfig config;
  config.max_instructions = 8;
  dataset::BlockGenerator generator(config, /*seed=*/20260808);
  int candidates_seen = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const BasicBlock block = generator.Generate();
    for (const RewriteCandidate& candidate : EnumerateCandidates(block)) {
      ++candidates_seen;
      const std::string rendered = candidate.block.ToString();
      assembly::ParseResult<BasicBlock> reparsed = ParseBasicBlock(rendered);
      ASSERT_TRUE(reparsed.ok())
          << candidate.rule << " emitted unparseable block:\n" << rendered
          << "\nfrom:\n" << block.ToString();
      EXPECT_EQ(reparsed.value->ToString(), rendered);
      if (candidate.rule != "reorder") continue;
      // A reorder candidate must be exactly one hazard-free adjacent
      // swap of the original: same multiset of instructions, and the
      // swapped neighbors must not conflict (so every flow/anti/output
      // dependence of the original keeps its order — the dependency
      // closure is preserved).
      const std::vector<assembly::Instruction>& before = block.instructions;
      const std::vector<assembly::Instruction>& after =
          candidate.block.instructions;
      ASSERT_EQ(before.size(), after.size());
      std::vector<std::size_t> differing;
      for (std::size_t i = 0; i < before.size(); ++i) {
        if (before[i].ToString() != after[i].ToString()) {
          differing.push_back(i);
        }
      }
      ASSERT_EQ(differing.size(), 2u) << candidate.rule;
      const std::size_t lo = differing[0], hi = differing[1];
      ASSERT_EQ(hi, lo + 1) << "non-adjacent reorder";
      EXPECT_EQ(before[lo].ToString(), after[hi].ToString());
      EXPECT_EQ(before[hi].ToString(), after[lo].ToString());
      EXPECT_FALSE(Conflicts(DataFlowFor(before[lo]), DataFlowFor(before[hi])))
          << "hazardous swap emitted:\n" << block.ToString();
    }
  }
  // The generator's ALU-heavy families must exercise the catalog.
  EXPECT_GT(candidates_seen, 100);
}

// ---- DeoptimizeBlock --------------------------------------------------

TEST(DeoptimizeBlockTest, StrictlyWorsensAndStaysParseable) {
  const uarch::ThroughputModel oracle(uarch::Microarchitecture::kHaswell);
  const BasicBlock block =
      Parse("SHL RAX, 3\nADD RAX, RBX\nADD QWORD PTR [RCX], RDX");
  const BasicBlock worse = DeoptimizeBlock(block, oracle, /*max_rewrites=*/4);
  EXPECT_GT(oracle.CyclesPerIteration(worse),
            oracle.CyclesPerIteration(block));
  assembly::ParseResult<BasicBlock> reparsed =
      ParseBasicBlock(worse.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(reparsed.value->ToString(), worse.ToString());
}

TEST(DeoptimizeBlockTest, DeterministicAcrossCalls) {
  const uarch::ThroughputModel oracle(uarch::Microarchitecture::kSkylake);
  const BasicBlock block = Parse("IMUL RAX, RAX, 5\nADD RAX, RBX");
  const BasicBlock a = DeoptimizeBlock(block, oracle, 3);
  const BasicBlock b = DeoptimizeBlock(block, oracle, 3);
  EXPECT_EQ(a.ToString(), b.ToString());
}

// ---- Pinned candidate bits --------------------------------------------

/** A digest of every candidate (rule and block text) of 200
 * generator blocks, and of the DeoptimizeBlock chain of each block on
 * every microarchitecture. A change moves the search space the served
 * model ranks and must be made on purpose. */
TEST(TransformGoldenTest, CandidateAndDeoptimizeDigest) {
  dataset::GeneratorConfig config;
  config.max_instructions = 8;
  dataset::BlockGenerator generator(config, /*seed=*/2024);
  const uarch::ThroughputModel oracles[] = {
      uarch::ThroughputModel(uarch::Microarchitecture::kIvyBridge),
      uarch::ThroughputModel(uarch::Microarchitecture::kHaswell),
      uarch::ThroughputModel(uarch::Microarchitecture::kSkylake)};
  uint64_t candidates_digest = kFnvOffsetBasis;
  uint64_t deoptimize_digest = kFnvOffsetBasis;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const BasicBlock block = generator.Generate();
    for (const RewriteCandidate& candidate : EnumerateCandidates(block)) {
      candidates_digest = Fnv1a(candidates_digest, candidate.rule);
      candidates_digest = Fnv1a(candidates_digest, "\n");
      candidates_digest =
          Fnv1a(candidates_digest, candidate.block.ToString());
      candidates_digest = Fnv1a(candidates_digest, "\n\n");
    }
    for (const uarch::ThroughputModel& oracle : oracles) {
      deoptimize_digest = Fnv1a(
          deoptimize_digest, DeoptimizeBlock(block, oracle).ToString());
      deoptimize_digest = Fnv1a(deoptimize_digest, "\n\n");
    }
  }
  EXPECT_EQ(candidates_digest, 0x60C227430344E749ull)
      << std::hex << candidates_digest;
  EXPECT_EQ(deoptimize_digest, 0x388E57DF711445EEull)
      << std::hex << deoptimize_digest;
}

/** The candidate digest over hand-written blocks whose legality hinges
 * on implicit operands the generator never emits: REP string operations
 * (RCX), the MUL/CQO accumulators, PUSH/POP stack memory, and blocks
 * that leave only classic registers free for scratch. */
TEST(TransformGoldenTest, ImplicitOperandCandidateDigest) {
  const char* const blocks[] = {
      "REP MOVSB\nADD RAX, 1\nMOV RBX, RCX\nADD QWORD PTR [RBX], 1",
      "MUL RCX\nMOV R8, RAX\nADD R8, RDX\nIMUL R9, R8, 4",
      "PUSH RAX\nMOV RAX, 0\nPOP RBX\nADD DWORD PTR [RSP], 1",
      "MOV R15, R14\nADD RAX, R15\nMOV R13, QWORD PTR [R12]\nADD R13, 1\n"
      "MOV QWORD PTR [R12], R13\nMOV R11, R10\nMOV R9, R8\nCQO\nSTOSQ\n"
      "ADD QWORD PTR [RBX], RAX",
      "CMP RAX, RBX\nSETNE CL\nINC RDX\nMOV RSI, 0\nLEA RDI, [RSI + 4*RSI]",
      "LOCK ADD QWORD PTR [RDI], 1\nREPNE STOSB\nSUB RCX, 1\nXOR EAX, EAX",
  };
  uint64_t digest = kFnvOffsetBasis;
  int candidates_seen = 0;
  for (const char* text : blocks) {
    for (const RewriteCandidate& candidate :
         EnumerateCandidates(Parse(text))) {
      ++candidates_seen;
      digest = Fnv1a(digest, candidate.rule);
      digest = Fnv1a(digest, "\n");
      digest = Fnv1a(digest, candidate.block.ToString());
      digest = Fnv1a(digest, "\n\n");
    }
  }
  EXPECT_EQ(candidates_seen, 46);
  EXPECT_EQ(digest, 0x0F143E1FA4314E26ull) << std::hex << digest;
}

}  // namespace
}  // namespace granite::autotune
