#include "uarch/throughput_model.h"

#include <algorithm>
#include <vector>

#include "asm/registers.h"
#include "asm/semantics.h"
#include "base/logging.h"

namespace granite::uarch {
namespace {

using assembly::BasicBlock;
using assembly::DataFlow;
using assembly::Instruction;
using assembly::Register;

/** PortSet is a 32-bit mask, so no table has more ports than this. */
constexpr int kMaxPorts = 32;

/** The microarchitecture-independent part of one instruction: its data
 * flow and the prefix effects that add to its cost. */
struct DecodedInstruction {
  DataFlow flow;
  bool lock = false;
  /** A REP prefix on a string operation. */
  bool rep_string = false;
};

/**
 * One thread's working memory. A block is decoded into `decoded` once;
 * each microarchitecture's estimate then rebuilds the remaining vectors
 * from that decode. Every vector keeps its capacity across calls, so a
 * thread that has seen a block of a given shape estimates the next one
 * without allocating.
 */
struct Scratch {
  /** The first `num_instructions` entries are the current block;
   * entries past it keep their lists' capacity for longer blocks. */
  std::vector<DecodedInstruction> decoded;
  std::size_t num_instructions = 0;
  /** Compute latency per instruction, prefix costs included. */
  std::vector<int> latencies;
  /** Port set of every uop that occupies an execution port, in
   * instruction order. */
  std::vector<PortSet> uops;
  /** Per-port load each uop contributes, uops.size() x num_ports. */
  std::vector<double> contributions;
  /** Ready time per register id. Every stored time is >= 0 and every
   * max over reads starts at 0.0, so a register never written reads as
   * 0.0 without changing any result. */
  std::vector<double> register_ready;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/** Decodes the data flow and prefixes of every instruction of `block`
 * into `scratch`. */
void Decode(const BasicBlock& block, Scratch& scratch) {
  const std::size_t n = block.instructions.size();
  if (scratch.decoded.size() < n) scratch.decoded.resize(n);
  scratch.num_instructions = n;
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& instruction = block.instructions[i];
    DecodedInstruction& decoded = scratch.decoded[i];
    assembly::DataFlowFor(instruction, &decoded.flow);
    decoded.lock = instruction.HasPrefix("LOCK");
    decoded.rep_string =
        instruction.HasRepPrefix() && decoded.flow.semantics->is_string_op;
  }
}

/**
 * Distributes `weight` uops over the first `num_ports` ports that are in
 * `ports` so the resulting maximum load is minimized (water-filling),
 * updating `loads` and recording the per-port contribution in
 * `contribution`.
 */
void WaterFill(PortSet ports, double weight, int num_ports, double* loads,
               double* contribution) {
  int port_list[kMaxPorts];
  std::size_t count = 0;
  for (int p = 0; p < num_ports; ++p) {
    if (ports.Contains(p)) port_list[count++] = p;
  }
  GRANITE_CHECK(count > 0);
  std::sort(port_list, port_list + count,
            [loads](int a, int b) { return loads[a] < loads[b]; });
  double remaining = weight;
  // Raise the lowest-loaded ports to the level of the next one until the
  // weight is exhausted, then spread the rest evenly.
  for (std::size_t k = 0; k + 1 < count && remaining > 0.0; ++k) {
    const double level_gap =
        loads[port_list[k + 1]] - loads[port_list[k]];
    const double capacity = level_gap * static_cast<double>(k + 1);
    const double used = std::min(remaining, capacity);
    const double per_port = used / static_cast<double>(k + 1);
    for (std::size_t j = 0; j <= k; ++j) {
      loads[port_list[j]] += per_port;
      contribution[port_list[j]] += per_port;
    }
    remaining -= used;
  }
  if (remaining > 0.0) {
    const double per_port = remaining / static_cast<double>(count);
    for (std::size_t j = 0; j < count; ++j) {
      loads[port_list[j]] += per_port;
      contribution[port_list[j]] += per_port;
    }
  }
}

/** Computes the port-pressure bound of `scratch.uops` by iterative
 * rebalancing. */
double PortPressureBound(Scratch& scratch, int num_ports) {
  const std::size_t num_uops = scratch.uops.size();
  if (num_uops == 0) return 0.0;
  double loads[kMaxPorts] = {};
  const std::size_t stride = static_cast<std::size_t>(num_ports);
  scratch.contributions.assign(num_uops * stride, 0.0);
  // A few relaxation sweeps: remove one uop's assignment, re-water-fill it
  // against the remaining load. Converges quickly in practice.
  constexpr int kSweeps = 4;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t i = 0; i < num_uops; ++i) {
      double* contribution = scratch.contributions.data() + i * stride;
      for (int p = 0; p < num_ports; ++p) {
        loads[p] -= contribution[p];
        contribution[p] = 0.0;
      }
      WaterFill(scratch.uops[i], 1.0, num_ports, loads, contribution);
    }
  }
  return *std::max_element(loads, loads + num_ports);
}

/** The latest ready time of `registers`, or 0.0 when none was written. */
double ReadyTime(const std::vector<Register>& registers,
                 const std::vector<double>& register_ready) {
  double ready = 0.0;
  for (const Register reg : registers) {
    ready = std::max(ready, register_ready[reg]);
  }
  return ready;
}

/**
 * Dependency bound: unrolled data-flow simulation with unlimited
 * execution resources. Returns the average critical-path growth per
 * iteration once the recurrence reaches steady state.
 */
double DependencyBound(Scratch& scratch, const UarchParams& params) {
  constexpr int kWarmupIterations = 16;
  constexpr int kMeasuredIterations = 16;
  constexpr int kTotalIterations = kWarmupIterations + kMeasuredIterations;

  std::vector<double>& register_ready = scratch.register_ready;
  register_ready.assign(assembly::RegisterTable().size(), 0.0);
  double memory_ready = 0.0;
  bool memory_written = false;
  double frontier = 0.0;
  double frontier_after_warmup = 0.0;

  for (int iteration = 0; iteration < kTotalIterations; ++iteration) {
    for (std::size_t i = 0; i < scratch.num_instructions; ++i) {
      const DataFlow& flow = scratch.decoded[i].flow;
      const bool reads_memory = !flow.memory_reads.empty();
      double inputs_ready = ReadyTime(flow.register_reads, register_ready);
      if (reads_memory || !flow.address_reads.empty()) {
        const double address_ready =
            ReadyTime(flow.address_reads, register_ready);
        if (reads_memory) {
          // The loaded value is ready a load-latency after the address; a
          // pending store to the (conservatively aliased) memory value
          // forwards with the store-forward latency.
          double load_ready = address_ready + params.load_latency;
          if (memory_written) {
            load_ready = std::max(
                load_ready, std::max(address_ready, memory_ready) +
                                params.store_forward_latency);
          }
          inputs_ready = std::max(inputs_ready, load_ready);
        } else {
          inputs_ready = std::max(inputs_ready, address_ready);
        }
      }
      const double result_time = inputs_ready + scratch.latencies[i];
      for (const Register reg : flow.register_writes) {
        register_ready[reg] = result_time;
      }
      if (!flow.memory_writes.empty()) {
        memory_ready = result_time;
        memory_written = true;
      }
      frontier = std::max(frontier, result_time);
    }
    if (iteration == kWarmupIterations - 1) frontier_after_warmup = frontier;
  }
  return (frontier - frontier_after_warmup) /
         static_cast<double>(kMeasuredIterations);
}

/** Estimates the block decoded in `scratch` on the microarchitecture
 * `params` describes. */
ThroughputBreakdown EstimateDecoded(Scratch& scratch,
                                    const UarchParams& params) {
  GRANITE_CHECK_LE(params.num_ports, kMaxPorts);
  scratch.latencies.clear();
  scratch.uops.clear();
  int total_uops = 0;
  for (std::size_t i = 0; i < scratch.num_instructions; ++i) {
    const DecodedInstruction& decoded = scratch.decoded[i];
    const CategoryTiming& timing =
        params.TimingFor(decoded.flow.semantics->category);
    int latency = timing.latency;
    int num_uops = timing.compute_uops;
    if (!timing.compute_ports.empty()) {
      for (int u = 0; u < timing.compute_uops; ++u) {
        scratch.uops.push_back(timing.compute_ports);
      }
    }
    // Memory access uops.
    const std::size_t loads = decoded.flow.memory_reads.size();
    const std::size_t stores = decoded.flow.memory_writes.size();
    for (std::size_t l = 0; l < loads; ++l) {
      scratch.uops.push_back(params.load_ports);
    }
    for (std::size_t s = 0; s < stores; ++s) {
      scratch.uops.push_back(params.store_address_ports);
      scratch.uops.push_back(params.store_data_ports);
    }
    num_uops += static_cast<int>(loads + 2 * stores);
    // Prefix effects. A LOCK prefix serializes the read-modify-write; REP
    // turns a string operation into a micro-coded loop (DataFlowFor adds
    // its RCX count). Both are modeled with flat cost increments, which
    // is what a measurement of a short fixed-count string operation looks
    // like.
    if (decoded.lock) {
      latency += 16;
      num_uops += 2;
    }
    if (decoded.rep_string) {
      latency += 24;
      num_uops += 12;
    }
    scratch.latencies.push_back(latency);
    total_uops += num_uops;
  }

  ThroughputBreakdown breakdown;
  breakdown.total_uops = total_uops;
  breakdown.frontend_bound =
      static_cast<double>(total_uops) / params.issue_width;
  breakdown.port_bound = PortPressureBound(scratch, params.num_ports);
  breakdown.dependency_bound = DependencyBound(scratch, params);
  breakdown.cycles_per_iteration =
      std::max({breakdown.frontend_bound, breakdown.port_bound,
                breakdown.dependency_bound});
  // Even an empty or pure-NOP block occupies the front end for at least
  // one cycle per iteration when measured in a loop.
  breakdown.cycles_per_iteration =
      std::max(breakdown.cycles_per_iteration, 1.0);
  return breakdown;
}

}  // namespace

ThroughputModel::ThroughputModel(Microarchitecture microarchitecture)
    : microarchitecture_(microarchitecture),
      params_(GetUarchParams(microarchitecture)) {}

ThroughputBreakdown ThroughputModel::Estimate(const BasicBlock& block) const {
  Scratch& scratch = ThreadScratch();
  Decode(block, scratch);
  return EstimateDecoded(scratch, params_);
}

double ThroughputModel::CyclesPerIteration(const BasicBlock& block) const {
  return Estimate(block).cycles_per_iteration;
}

std::array<ThroughputBreakdown, kNumMicroarchitectures> EstimateOnAllUarchs(
    const BasicBlock& block) {
  Scratch& scratch = ThreadScratch();
  Decode(block, scratch);
  std::array<ThroughputBreakdown, kNumMicroarchitectures> breakdowns;
  for (const Microarchitecture microarchitecture : AllMicroarchitectures()) {
    breakdowns[static_cast<int>(microarchitecture)] =
        EstimateDecoded(scratch, GetUarchParams(microarchitecture));
  }
  return breakdowns;
}

}  // namespace granite::uarch
