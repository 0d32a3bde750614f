/**
 * @file
 * Microarchitecture parameter tables.
 *
 * The paper trains and evaluates on hardware measurements from three Intel
 * microarchitectures: Ivy Bridge, Haswell and Skylake. Since real
 * measurements are not available here, this module provides an analytical
 * port-model description of each microarchitecture (execution port counts,
 * issue width, per-category uop decompositions, port bindings and
 * latencies) in the style of llvm-mca / UiCA scheduling models. The
 * throughput simulator built on these tables (throughput_model.h) serves
 * as the ground-truth oracle for dataset synthesis.
 *
 * The parameters follow the publicly documented shapes of the real
 * microarchitectures (6 execution ports and a 4-wide issue on Ivy Bridge;
 * 8 ports on Haswell and Skylake; division latencies shrinking across
 * generations; Skylake's longer FP-add but wider FP-mul), so the learning
 * problem preserves the paper's structure: the three tasks are related but
 * not identical, which is what makes multi-task learning (§5.3) behave as
 * reported.
 *
 * Thread-safety: the parameter tables are built once on first use and
 * immutable afterwards; GetUarchParams, AllMicroarchitectures and
 * UarchParams::TimingFor are safe to call concurrently.
 */
#ifndef GRANITE_UARCH_MICROARCHITECTURE_H_
#define GRANITE_UARCH_MICROARCHITECTURE_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asm/semantics.h"

namespace granite::uarch {

/** The three target microarchitectures of the paper. */
enum class Microarchitecture {
  kIvyBridge = 0,
  kHaswell = 1,
  kSkylake = 2,
};

/** Number of modeled microarchitectures. */
inline constexpr int kNumMicroarchitectures = 3;

/** Display name, e.g. "Ivy Bridge". */
std::string_view MicroarchitectureName(Microarchitecture microarchitecture);

/** All modeled microarchitectures, in enum order. */
const std::vector<Microarchitecture>& AllMicroarchitectures();

/** A set of execution ports, one bit per port index. */
struct PortSet {
  uint32_t mask = 0;

  constexpr PortSet() = default;
  /** Builds a set from an explicit port list, e.g. PortSet({0, 1, 5}). */
  PortSet(std::initializer_list<int> ports) {
    for (int port : ports) mask |= 1u << port;
  }

  bool empty() const { return mask == 0; }
  bool Contains(int port) const { return (mask >> port) & 1u; }
  int Count() const { return __builtin_popcount(mask); }
};

/** Execution characteristics of one instruction category. */
struct CategoryTiming {
  /** Number of uops issued to the compute ports. */
  int compute_uops = 1;
  /** Ports that can execute the compute uops. */
  PortSet compute_ports;
  /** Latency from inputs ready to result ready, in cycles. */
  int latency = 1;
};

/** Full parameter table of one microarchitecture. */
struct UarchParams {
  std::string_view name;
  int num_ports = 0;
  /** Uops issued (renamed/retired) per cycle: the front-end bound. */
  int issue_width = 4;
  /** L1 load-to-use latency in cycles. */
  int load_latency = 5;
  /** Store-to-load forwarding latency in cycles. */
  int store_forward_latency = 5;
  PortSet load_ports;
  PortSet store_address_ports;
  PortSet store_data_ports;
  /** Timing per instruction category. Every category is present. */
  std::unordered_map<assembly::InstructionCategory, CategoryTiming> timing;

  /** Returns the timing entry of `category`, failing on gaps. */
  const CategoryTiming& TimingFor(
      assembly::InstructionCategory category) const;
};

/** Returns the parameter table of `microarchitecture`. */
const UarchParams& GetUarchParams(Microarchitecture microarchitecture);

}  // namespace granite::uarch

#endif  // GRANITE_UARCH_MICROARCHITECTURE_H_
