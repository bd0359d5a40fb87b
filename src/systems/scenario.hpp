// ScenarioRegistry: named builder recipes for evaluation systems.
//
// Every SoC the benches, examples and tests run is a scenario: a name like
// "pack-256-17b" or "dual-master-pack" mapped to a SystemBuilder recipe.
// The registry ships with the paper's three SoCs across the swept bus
// widths plus multi-master and ideal-backend variants, and accepts
// project-local registrations for new topologies.
//
// Names of the parametric families are also *parsed*, so any point of the
// paper's sweeps resolves without pre-registration:
//
//   {base|pack}-{64|128|256}-{N}b   e.g. pack-256-31b  (N = bank count)
//   {base|pack}-{64|128|256}-dram   same SoC over the DRAM timing backend
//     ...-dram[-w{W}][-c{C}][-q{Q}] with optional row-batching scheduler
//                                   knobs: W = per-port lookahead window
//                                   (1 = head-only; default: the adapter's
//                                   per-lane in-flight words, 210 on
//                                   pack-dram), C = starvation cap in
//                                   cycles (0 = no batching), Q = per-port
//                                   memory request-FIFO depth; e.g.
//                                   pack-256-dram-w1 (no batching) or
//                                   pack-256-dram-w16-c128-q32
//     ...-dram[-f{F}][-r{R}]        fault injection at F x the default
//                                   mixed-fault rates and a retry budget of
//                                   R total attempts (f implies r4); e.g.
//                                   pack-256-dram-f2-r4
//   ideal-{64|128|256}              processor on exclusive ideal memory
//
// Fixed names:
//
//   base-dram           BASE SoC over the cycle-level "dram" backend
//   pack-dram           PACK SoC over the cycle-level "dram" backend
//   pack-dram-faults    PACK SoC over "dram" with default mixed-fault
//                       injection and a 4-attempt retry budget
//   pack-256-idealmem   PACK pipeline over the conflict-free "ideal"
//                       memory backend (adapter upper bound)
//   dual-master-pack    vector processor + DMA engine sharing the xbar,
//                       link and AXI-Pack adapter
//   dual-dma-pack       two DMA engines sharing the fabric
//   quad-dma-pack       four DMA engines sharing the fabric
//
// Scenario names are the scenario axis of the declarative experiment
// layer (systems/experiment.hpp) and the input to the backend-aware
// workload planner (plan_workload in systems/runner.hpp), which resolves
// a name to its builder and inspects the resulting memory backend.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "systems/builder.hpp"

namespace axipack::sys {

/// The paper's three evaluation SoCs (§III-A), sharing one processor and
/// memory parameterization (lanes scale with the bus width, 17 banks):
///   base  — unmodified Ara over plain AXI4 to the banked memory
///   pack  — AXI-Pack-extended Ara, bus and controller
///   ideal — Ara on an exclusive ideal memory, one port per lane
enum class SystemKind : std::uint8_t { base, pack, ideal };

const char* system_name(SystemKind k);

struct Scenario {
  std::string name;
  std::string description;
  std::function<SystemBuilder()> recipe;
};

class ScenarioRegistry {
 public:
  /// Pre-loaded with the built-in scenarios described in the file header.
  static ScenarioRegistry& instance();

  /// Registers (or replaces) a scenario.
  void add(Scenario scenario);

  /// True if `name` resolves — registered, or parseable as a parametric
  /// family member.
  bool contains(const std::string& name) const;

  /// All registered scenario names, in registration order (parametric
  /// family members resolve via builder() even when not listed here).
  std::vector<std::string> names() const;

  /// Registered scenario metadata, or nullptr (parsed names have none).
  const Scenario* find(const std::string& name) const;

  /// Resolves `name` to its builder recipe; asserts the name resolves.
  SystemBuilder builder(const std::string& name) const;

  /// Convenience: builder(name).build().
  std::unique_ptr<System> build(const std::string& name) const;

 private:
  ScenarioRegistry();
  std::vector<Scenario> scenarios_;
};

/// Canonical scenario name for one of the paper's SoCs:
/// "{kind}-{bus_bits}-{banks}b", or "ideal-{bus_bits}" for IDEAL.
std::string scenario_name(SystemKind kind, unsigned bus_bits = 256,
                          unsigned banks = 17);

/// Parses a parametric-family name into a builder (see file header).
/// Disengaged if the name does not match a family. When `error` is
/// non-null and the name is *almost* a family member but malformed in a
/// diagnosable way (e.g. a knob repeated: "pack-256-dram-w8-w16"), a
/// human-readable description is stored there; it is left untouched for
/// names that simply belong to no family.
std::optional<SystemBuilder> parse_scenario(const std::string& name,
                                            std::string* error = nullptr);

}  // namespace axipack::sys
