// Memory selection: which memory model ends a channel, and with what
// parameters.
//
// A system's AXI-Pack adapter talks to one WordMemory per channel (see
// word.hpp): the paper's banked on-chip SRAM, the conflict-free ideal
// memory, or the cycle-level DRAM timing model. MemoryBackendConfig holds
// the parameters of all three; make_memory builds the one `kind` names.
#pragma once

#include <cstdint>
#include <memory>

#include "mem/backing_store.hpp"
#include "mem/dram_timing.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

/// The memory models a channel can end in.
enum class MemoryKind : std::uint8_t {
  banked,  ///< the paper's banked on-chip SRAM (BASE/PACK endpoint)
  ideal,   ///< conflict-free (the Fig. 5 "ideal bank count" endpoint)
  dram,    ///< cycle-level DRAM timing (off-chip endpoint)
};

/// Construction parameters of every memory kind. Fields a kind does not
/// use (e.g. num_banks on ideal, the dram timing block on banked) are
/// ignored by it.
struct MemoryBackendConfig {
  MemoryKind kind = MemoryKind::banked;
  unsigned num_ports = 8;        ///< word ports (= bus_bytes / 4)
  unsigned num_banks = 17;       ///< banked only
  std::size_t req_depth = 2;     ///< per-port request FIFO depth
  std::size_t resp_depth = 64;   ///< per-port response FIFO depth
  /// dram only: bank organization, address-mapping policy and the core
  /// timing set. The derived data latencies are
  ///   row hit   tCAS                 (open-row column access)
  ///   closed    tRCD + tCAS          (activate first, e.g. after refresh)
  ///   row miss  tRP + tRCD + tCAS    (precharge, activate, then access)
  /// and every tREFI cycles an all-bank refresh blocks activates for tRFC
  /// (tREFI = 0 disables refresh). See dram_timing.hpp for the field-level
  /// documentation and defaults.
  DramTimingConfig dram;
  /// dram only: row-aware batching scheduler. The per-port lookahead
  /// window (1 = head-only, no batching) and the starvation cap bounding
  /// how long a timing-legal row miss may be deferred for pending same-row
  /// requests (0 = no batching). See DramMemoryConfig; the effective
  /// window is bounded by req_depth, so deepen both together. The window's
  /// 32 serves only configs handed to make_memory directly: system builds
  /// derive the window from the adapter unless SystemBuilder::dram_sched
  /// sets it.
  std::size_t dram_sched_window = 32;
  sim::Cycle dram_starve_cap = 48;
  /// Channel-interleave geometry of the surrounding system (1 = the
  /// single-channel identity). dram compacts the channel-select address
  /// bits out of its row/bank decomposition so per-channel row locality
  /// survives interleaving; banked (17 prime banks) and ideal decode
  /// absolute addresses and ignore these.
  unsigned channels = 1;
  std::uint64_t channel_granule_bytes = 4096;
};

/// Builds the memory `cfg.kind` names from the fields that kind reads.
std::unique_ptr<WordMemory> make_memory(sim::Kernel& k, BackingStore& store,
                                        const MemoryBackendConfig& cfg);

}  // namespace axipack::mem
