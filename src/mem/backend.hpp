// Pluggable memory-backend layer.
//
// A MemoryBackend owns the word-memory endpoint a system's AXI-Pack adapter
// talks to and exposes backend-agnostic activity statistics, so systems can
// swap the memory model without touching the fabric or the adapter.
// Backends are created by name through the BackendRegistry, which ships
// with "banked" (the paper's on-chip SRAM), "ideal" (conflict-free) and
// "dram" (cycle-level DRAM timing) and accepts project-local registrations.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/banked_memory.hpp"
#include "mem/dram_memory.hpp"
#include "mem/ideal_memory.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

/// Backend-agnostic construction parameters. Fields a backend does not use
/// (e.g. num_banks on "ideal", the dram timing block on "banked") are
/// ignored by it.
struct MemoryBackendConfig {
  std::string name = "banked";   ///< registry key
  unsigned num_ports = 8;        ///< word ports (= bus_bytes / 4)
  unsigned num_banks = 17;       ///< banked only
  std::size_t req_depth = 2;     ///< per-port request FIFO depth
  std::size_t resp_depth = 64;   ///< per-port response FIFO depth
  /// "dram" only: bank organization, address-mapping policy and the core
  /// timing set. The derived data latencies are
  ///   row hit   tCAS                 (open-row column access)
  ///   closed    tRCD + tCAS          (activate first, e.g. after refresh)
  ///   row miss  tRP + tRCD + tCAS    (precharge, activate, then access)
  /// and every tREFI cycles an all-bank refresh blocks activates for tRFC
  /// (tREFI = 0 disables refresh). See dram_timing.hpp for the field-level
  /// documentation and defaults.
  DramTimingConfig dram;
  /// "dram" only: row-aware batching scheduler. The per-port lookahead
  /// window (1 = head-only, no batching) and the starvation cap bounding
  /// how long a timing-legal row miss may be deferred for pending same-row
  /// requests (0 = no batching). See DramMemoryConfig; the effective
  /// window is bounded by req_depth, so deepen both together. The window's
  /// 32 serves only configs handed to DramBackend as given (direct users
  /// and SystemBuilder::memory(cfg)): other builds derive the window from
  /// the adapter unless SystemBuilder::dram_sched sets it.
  std::size_t dram_sched_window = 32;
  sim::Cycle dram_starve_cap = 48;
  /// Channel-interleave geometry of the surrounding system (1 = the
  /// single-channel identity). "dram" compacts the channel-select address
  /// bits out of its row/bank decomposition so per-channel row locality
  /// survives interleaving; "banked" (17 prime banks) and "ideal" decode
  /// absolute addresses and ignore these.
  unsigned channels = 1;
  std::uint64_t channel_granule_bytes = 4096;
};

/// Activity counters every backend can report; backends without a concept
/// of conflicts (or of row buffers) report zeros for the fields they do not
/// track.
struct MemoryBackendStats {
  std::uint64_t grants = 0;
  std::uint64_t conflict_losses = 0;
  std::uint64_t row_hits = 0;             ///< dram only
  std::uint64_t row_misses = 0;           ///< dram only (activates)
  std::uint64_t refresh_stall_cycles = 0; ///< dram only
  std::uint64_t row_batch_defer_cycles = 0;  ///< dram only (row batching)
  std::uint64_t row_starved_grants = 0;      ///< dram only (cap overrides)
};

/// One memory endpoint behind an adapter: the word memory plus uniform
/// introspection. Owns the underlying memory model.
class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;
  virtual const std::string& name() const = 0;
  virtual WordMemory& word_memory() = 0;
  virtual MemoryBackendStats stats() const = 0;
};

/// The paper's banked on-chip SRAM (BASE/PACK endpoint).
class BankedBackend final : public MemoryBackend {
 public:
  BankedBackend(sim::Kernel& k, BackingStore& store,
                const MemoryBackendConfig& cfg);
  const std::string& name() const override { return name_; }
  WordMemory& word_memory() override { return *memory_; }
  MemoryBackendStats stats() const override;
  const BankedMemory& banked() const { return *memory_; }

 private:
  std::string name_ = "banked";
  std::unique_ptr<BankedMemory> memory_;
};

/// Cycle-level DRAM timing model (off-chip endpoint; see dram_memory.hpp).
class DramBackend final : public MemoryBackend {
 public:
  DramBackend(sim::Kernel& k, BackingStore& store,
              const MemoryBackendConfig& cfg);
  const std::string& name() const override { return name_; }
  WordMemory& word_memory() override { return *memory_; }
  MemoryBackendStats stats() const override;
  DramMemory& dram() { return *memory_; }
  const DramMemory& dram() const { return *memory_; }

 private:
  std::string name_ = "dram";
  std::unique_ptr<DramMemory> memory_;
};

/// Conflict-free word memory (the Fig. 5 "ideal bank count" endpoint).
class IdealBackend final : public MemoryBackend {
 public:
  IdealBackend(sim::Kernel& k, BackingStore& store,
               const MemoryBackendConfig& cfg);
  const std::string& name() const override { return name_; }
  WordMemory& word_memory() override { return *memory_; }
  MemoryBackendStats stats() const override;

 private:
  std::string name_ = "ideal";
  std::unique_ptr<IdealMemory> memory_;
};

using BackendFactory = std::function<std::unique_ptr<MemoryBackend>(
    sim::Kernel&, BackingStore&, const MemoryBackendConfig&)>;

/// Name -> factory map for memory backends. `instance()` comes pre-loaded
/// with the built-in "banked" and "ideal" backends.
class BackendRegistry {
 public:
  static BackendRegistry& instance();

  /// Registers (or replaces) a factory under `name`.
  void add(const std::string& name, BackendFactory factory);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Builds the backend registered under `cfg.name`; asserts it exists.
  std::unique_ptr<MemoryBackend> create(sim::Kernel& k, BackingStore& store,
                                        const MemoryBackendConfig& cfg) const;

 private:
  BackendRegistry();
  std::vector<std::pair<std::string, BackendFactory>> factories_;
};

}  // namespace axipack::mem
