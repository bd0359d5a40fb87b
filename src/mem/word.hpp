// Word-port interface between the AXI-Pack adapter and its memory.
//
// The adapter converts bursts into sequences of W-bit word accesses issued on
// n parallel ports (n = bus_width / word_width). Each port is a request FIFO
// plus a response FIFO; every memory behind the adapter returns a port's
// responses in request order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/kernel.hpp"

namespace axipack::mem {

/// Memory word width used by all evaluation systems (32-bit banks).
inline constexpr unsigned kWordBytes = 4;

/// One word access. `addr` is an absolute, word-aligned byte address.
struct WordReq {
  std::uint64_t addr = 0;
  bool write = false;
  std::uint32_t wdata = 0;
  std::uint8_t wstrb = 0;  ///< low 4 bits; ignored for reads
  std::uint32_t tag = 0;   ///< opaque to the memory, returned on the response
};

/// Response to a WordReq (writes are acknowledged too, for B generation).
struct WordResp {
  std::uint32_t rdata = 0;
  std::uint32_t tag = 0;
  bool was_write = false;
  /// The access faulted: a read returned poisoned data (uncorrectable), a
  /// write was dropped before reaching the array. Converters surface this
  /// as SLVERR on the owning burst's R/B response.
  bool error = false;
};

/// One request/response port pair. Owned by the memory.
struct WordPort {
  sim::Fifo<WordReq> req;
  sim::Fifo<WordResp> resp;

  WordPort(sim::Kernel& k, std::size_t req_depth, std::size_t resp_depth,
           sim::Cycle resp_latency)
      : req(k, req_depth, 1), resp(k, resp_depth, resp_latency) {}
};

/// Activity counters every memory can report; memories without a concept
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

/// An n-port word memory: the endpoint of one memory channel (banked SRAM,
/// ideal or DRAM). The base builds and owns the ports, then registers the
/// memory with the kernel, subscribed to every request Fifo — so a memory
/// ticks right after its ports exist, before the adapter that feeds them.
/// Subclasses serve the requests in tick().
class WordMemory : public sim::Component {
 public:
  // The kernel and the adapter hold the memory's address.
  WordMemory(const WordMemory&) = delete;
  WordMemory& operator=(const WordMemory&) = delete;

  unsigned num_ports() const { return static_cast<unsigned>(ports_.size()); }
  WordPort& port(unsigned i) { return *ports_[i]; }

  /// Counters since construction. The default reports no activity.
  virtual MemoryBackendStats activity() const { return {}; }

 protected:
  /// Zero FIFO depths abort with a diagnostic naming `who`, in every build
  /// type: Fifo's own capacity check is an assert.
  WordMemory(sim::Kernel& k, const char* who, unsigned num_ports,
             std::size_t req_depth, std::size_t resp_depth,
             sim::Cycle resp_latency);

  std::vector<std::unique_ptr<WordPort>> ports_;
};

}  // namespace axipack::mem
