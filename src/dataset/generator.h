/**
 * @file
 * Synthetic basic-block generator.
 *
 * Stands in for the Ithemal (1.4M blocks) and BHive (300K blocks) corpora,
 * which were collected from real binaries (databases, compilers, SPEC,
 * scientific computing, ML workloads; paper §4). The generator produces
 * blocks from several workload families that mirror the structural
 * variety of compiled code: dependency-chain-bound numeric loops,
 * instruction-parallel straight-line code, memory-traffic-heavy code,
 * floating-point kernels, address-arithmetic-heavy code and a mixed
 * family. Every produced block parses, is fully supported by the
 * semantics catalog, and is valid input to both the graph builder and the
 * throughput oracle.
 */
#ifndef GRANITE_DATASET_GENERATOR_H_
#define GRANITE_DATASET_GENERATOR_H_

#include <vector>

#include "asm/instruction.h"
#include "base/rng.h"

namespace granite::dataset {

/** Structural families of generated blocks. */
enum class WorkloadFamily {
  kDependencyChain,   ///< Serial accumulator chains (latency bound).
  kParallel,          ///< Independent operations (throughput bound).
  kMemoryHeavy,       ///< Loads/stores through varied addressing modes.
  kFloatingPoint,     ///< Scalar/packed SSE arithmetic.
  kAddressArithmetic, ///< LEA and complex addressing.
  kMixed,             ///< Uniform mixture of everything above.
};

/** Number of workload families. */
inline constexpr int kNumWorkloadFamilies = 6;

/** Tuning knobs of the generator. */
struct GeneratorConfig {
  /** Inclusive bounds on the block length in instructions. */
  int min_instructions = 1;
  int max_instructions = 12;
  /** Relative weights of the families, indexed by WorkloadFamily. */
  std::vector<double> family_weights =
      std::vector<double>(kNumWorkloadFamilies, 1.0);
  /** Probability that an ALU source operand is an immediate. */
  double immediate_fraction = 0.3;
  /** Probability that an ALU operand is a memory reference. */
  double memory_operand_fraction = 0.15;
  /** Probability of a LOCK prefix on eligible memory-destination RMW. */
  double lock_fraction = 0.02;
};

/** Deterministic generator of synthetic basic blocks. */
class BlockGenerator {
 public:
  BlockGenerator(const GeneratorConfig& config, uint64_t seed);

  /** Resumes generation from a captured RNG state (see rng()): the
   * continuation produces exactly the stream the snapshotted generator
   * would have — the replay hook of StreamingSynthesisSource. */
  BlockGenerator(const GeneratorConfig& config, const Rng& rng);

  /** The current RNG state; copy it to snapshot the stream position. */
  const Rng& rng() const { return rng_; }

  /** Generates the next block (family sampled from the config weights). */
  assembly::BasicBlock Generate();

  /** Generates a block from a specific family. */
  assembly::BasicBlock GenerateFromFamily(WorkloadFamily family);

  /** Generates `count` blocks. */
  std::vector<assembly::BasicBlock> GenerateMany(std::size_t count);

 private:
  assembly::BasicBlock GenerateDependencyChain(int length);
  assembly::BasicBlock GenerateParallel(int length);
  assembly::BasicBlock GenerateMemoryHeavy(int length);
  assembly::BasicBlock GenerateFloatingPoint(int length);
  assembly::BasicBlock GenerateAddressArithmetic(int length);
  assembly::BasicBlock GenerateMixed(int length);

  /** Samples a block length from the configured range. */
  int SampleLength();

  /** Samples a general-purpose register (excluding RSP), at `width`. */
  assembly::Register SampleGpRegister(int width_bits);

  /** Samples an XMM register. */
  assembly::Register SampleVectorRegister();

  /** Samples a random addressing expression over GP registers. */
  assembly::MemoryReference SampleMemoryReference();

  /** Builds a two-operand ALU instruction with randomized operand shapes
   * (register/immediate/memory source, occasional memory destination). */
  assembly::Instruction SampleAluInstruction(int width_bits);

  GeneratorConfig config_;
  Rng rng_;
};

}  // namespace granite::dataset

#endif  // GRANITE_DATASET_GENERATOR_H_
