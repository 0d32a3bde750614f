#include "uarch/throughput_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "asm/semantics.h"
#include "base/logging.h"

namespace granite::uarch {
namespace {

using assembly::BasicBlock;
using assembly::DataFlow;
using assembly::Instruction;
using assembly::Register;

/** One schedulable uop: a weight of 1 on any port of `ports`. */
struct Uop {
  PortSet ports;
};

/** Data-flow and uop summary of one instruction for the simulator. */
struct InstructionProfile {
  DataFlow flow;
  int compute_latency = 1;
  int num_uops = 0;       // total for the front-end bound
  std::vector<Uop> uops;  // only uops that occupy an execution port
};

/** Builds the data-flow and uop profile of one instruction. */
InstructionProfile BuildProfile(const Instruction& instruction,
                                const UarchParams& params) {
  InstructionProfile profile;
  profile.flow = assembly::DataFlowFor(instruction);
  const CategoryTiming& timing =
      params.TimingFor(profile.flow.semantics->category);
  profile.compute_latency = timing.latency;

  // Compute uops.
  for (int u = 0; u < timing.compute_uops; ++u) {
    if (!timing.compute_ports.empty()) {
      profile.uops.push_back(Uop{timing.compute_ports});
    }
  }
  profile.num_uops = timing.compute_uops;

  // Memory access uops.
  for (std::size_t l = 0; l < profile.flow.memory_reads.size(); ++l) {
    profile.uops.push_back(Uop{params.load_ports});
    ++profile.num_uops;
  }
  for (std::size_t s = 0; s < profile.flow.memory_writes.size(); ++s) {
    profile.uops.push_back(Uop{params.store_address_ports});
    profile.uops.push_back(Uop{params.store_data_ports});
    profile.num_uops += 2;
  }

  // Prefix effects. A LOCK prefix serializes the read-modify-write; REP
  // turns a string operation into a micro-coded loop (DataFlowFor adds
  // its RCX count). Both are modeled with flat cost increments, which is
  // what a measurement of a short fixed-count string operation looks
  // like.
  if (instruction.HasPrefix("LOCK")) {
    profile.compute_latency += 16;
    profile.num_uops += 2;
  }
  if (instruction.HasRepPrefix() && profile.flow.semantics->is_string_op) {
    profile.compute_latency += 24;
    profile.num_uops += 12;
  }
  return profile;
}

/**
 * Distributes `weight` uops over the ports in `ports` so the resulting
 * maximum load is minimized (water-filling), updating `loads` and
 * recording the per-port contribution in `contribution`.
 */
void WaterFill(const PortSet& ports, double weight, std::vector<double>& loads,
               std::vector<double>& contribution) {
  std::vector<int> port_list;
  for (int p = 0; p < static_cast<int>(loads.size()); ++p) {
    if (ports.Contains(p)) port_list.push_back(p);
  }
  GRANITE_CHECK(!port_list.empty());
  std::sort(port_list.begin(), port_list.end(),
            [&loads](int a, int b) { return loads[a] < loads[b]; });
  double remaining = weight;
  // Raise the lowest-loaded ports to the level of the next one until the
  // weight is exhausted, then spread the rest evenly.
  for (std::size_t k = 0; k + 1 < port_list.size() && remaining > 0.0; ++k) {
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
    const double per_port = remaining / static_cast<double>(port_list.size());
    for (int p : port_list) {
      loads[p] += per_port;
      contribution[p] += per_port;
    }
  }
}

/** Computes the port-pressure bound by iterative rebalancing. */
double PortPressureBound(const std::vector<InstructionProfile>& profiles,
                         int num_ports) {
  std::vector<const Uop*> uops;
  for (const InstructionProfile& profile : profiles) {
    for (const Uop& uop : profile.uops) uops.push_back(&uop);
  }
  if (uops.empty()) return 0.0;
  std::vector<double> loads(num_ports, 0.0);
  std::vector<std::vector<double>> contributions(
      uops.size(), std::vector<double>(num_ports, 0.0));
  // A few relaxation sweeps: remove one uop's assignment, re-water-fill it
  // against the remaining load. Converges quickly in practice.
  constexpr int kSweeps = 4;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t i = 0; i < uops.size(); ++i) {
      for (int p = 0; p < num_ports; ++p) {
        loads[p] -= contributions[i][p];
        contributions[i][p] = 0.0;
      }
      WaterFill(uops[i]->ports, 1.0, loads, contributions[i]);
    }
  }
  return *std::max_element(loads.begin(), loads.end());
}

/**
 * Dependency bound: unrolled data-flow simulation with unlimited
 * execution resources. Returns the average critical-path growth per
 * iteration once the recurrence reaches steady state.
 */
double DependencyBound(const std::vector<InstructionProfile>& profiles,
                       const UarchParams& params) {
  constexpr int kWarmupIterations = 16;
  constexpr int kMeasuredIterations = 16;
  constexpr int kTotalIterations = kWarmupIterations + kMeasuredIterations;

  std::unordered_map<Register, double> register_ready;
  double memory_ready = 0.0;
  bool memory_written = false;
  double frontier = 0.0;
  double frontier_after_warmup = 0.0;

  for (int iteration = 0; iteration < kTotalIterations; ++iteration) {
    for (const InstructionProfile& profile : profiles) {
      const DataFlow& flow = profile.flow;
      const bool reads_memory = !flow.memory_reads.empty();
      double inputs_ready = 0.0;
      for (Register reg : flow.register_reads) {
        const auto it = register_ready.find(reg);
        if (it != register_ready.end()) {
          inputs_ready = std::max(inputs_ready, it->second);
        }
      }
      if (reads_memory || !flow.address_reads.empty()) {
        double address_ready = 0.0;
        for (Register reg : flow.address_reads) {
          const auto it = register_ready.find(reg);
          if (it != register_ready.end()) {
            address_ready = std::max(address_ready, it->second);
          }
        }
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
      const double result_time = inputs_ready + profile.compute_latency;
      for (Register reg : flow.register_writes) {
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

}  // namespace

ThroughputModel::ThroughputModel(Microarchitecture microarchitecture)
    : microarchitecture_(microarchitecture),
      params_(GetUarchParams(microarchitecture)) {}

ThroughputBreakdown ThroughputModel::Estimate(const BasicBlock& block) const {
  std::vector<InstructionProfile> profiles;
  profiles.reserve(block.instructions.size());
  int total_uops = 0;
  for (const Instruction& instruction : block.instructions) {
    profiles.push_back(BuildProfile(instruction, params_));
    total_uops += profiles.back().num_uops;
  }

  ThroughputBreakdown breakdown;
  breakdown.total_uops = total_uops;
  breakdown.frontend_bound =
      static_cast<double>(total_uops) / params_.issue_width;
  breakdown.port_bound = PortPressureBound(profiles, params_.num_ports);
  breakdown.dependency_bound = DependencyBound(profiles, params_);
  breakdown.cycles_per_iteration =
      std::max({breakdown.frontend_bound, breakdown.port_bound,
                breakdown.dependency_bound});
  // Even an empty or pure-NOP block occupies the front end for at least
  // one cycle per iteration when measured in a loop.
  breakdown.cycles_per_iteration =
      std::max(breakdown.cycles_per_iteration, 1.0);
  return breakdown;
}

double ThroughputModel::CyclesPerIteration(const BasicBlock& block) const {
  return Estimate(block).cycles_per_iteration;
}

}  // namespace granite::uarch
