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
//   {base|pack}-{64|128|256}-dram   same SoC over the DRAM timing backend,
//                                   plus any knobs of kDramKnobs below, in
//                                   any order, each at most once; e.g.
//                                   pack-256-dram-w16-c128-q32
//   ideal-{64|128|256}              processor on exclusive ideal memory
//
// The fixed DRAM names (base-dram, pack-dram, pack-dram-coalesce, ...)
// are aliases of their spellings; their descriptions say which.
//
// Scenario names are the scenario axis of the declarative experiment
// layer (systems/experiment.hpp) and the input to the backend-aware
// workload planner (plan_workload in systems/runner.hpp), which resolves
// a name to its builder and inspects the resulting memory backend.
#pragma once

#include <cstddef>
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

/// One knob of the DRAM family: "-{token}{value}" with `value` in
/// [min, max] (and a power of two where `pow2` is set). A value outside the
/// domain, a repeat, or a knob without the knob it `needs` is rejected
/// with a diagnostic naming the knob.
struct DramKnob {
  const char* token;
  char metavar;  ///< value placeholder in docs and diagnostics: -w{W}
  unsigned min;
  unsigned max;
  bool pow2;
  int needs;  ///< index of the knob this one requires, or -1
  const char* doc;
};

/// Rows of kDramKnobs, in table order.
enum class Knob : std::size_t { w, c, q, x, g, f, r, ch, m, p, b };

/// The DRAM family's grammar: parse_scenario, its diagnostics, the docs and
/// tools/scenario_fuzz all read this table. Each maximum admits every value
/// the benches, tests and docs use, with headroom.
inline constexpr DramKnob kDramKnobs[] = {
    {"w", 'W', 1, 1024, false, -1,
     "row-batching lookahead window per port (1 = head-only)"},
    {"c", 'C', 0, 4096, false, -1,
     "row-batching starvation cap in cycles (0 = no batching)"},
    {"q", 'Q', 1, 1024, false, -1, "per-port memory request-FIFO depth"},
    {"x", 'E', 1, 4096, false, -1,
     "index-coalescer pending-table entries (enables the unit)"},
    {"g", 'G', 1, 256, false, -1,
     "index-coalescer grouping-window lookahead (enables the unit)"},
    {"f", 'F', 0, 400, false, -1,
     "fault injection at F x the default mixed-fault rates (implies r4)"},
    {"r", 'R', 0, 8, false, -1,
     "master retry budget in total attempts (0 = error handling off)"},
    {"ch", 'C', 1, 64, true, -1, "interleaved memory channels"},
    {"m", 'M', 1, 64, false, -1,
     "fabric masters: the processor plus extras, DMA / processor in turn"},
    {"p", 'R', 1, 1000, false, -1,
     "open-loop Poisson arrivals per 100k cycles on a ring DMA master"},
    {"b", 'B', 1, 64, false, static_cast<int>(Knob::p),
     "bursty on/off arrivals of burst length B (mean rate stays P)"},
};

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
/// non-null and the name is a DRAM family member with a malformed knob
/// (repeated, without a value, outside its domain, or missing the knob it
/// needs), a human-readable description is stored there; it is left
/// untouched for names that simply belong to no family, or that use a
/// token no knob has.
std::optional<SystemBuilder> parse_scenario(const std::string& name,
                                            std::string* error = nullptr);

}  // namespace axipack::sys
