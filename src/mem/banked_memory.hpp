// Banked on-chip SRAM: n word ports, m interleaved banks, fixed latency.
// This is the memory endpoint behind the AXI-Pack adapter in the BASE and
// PACK systems (paper: eight 32-bit word ports backed by 17 banks).
//
// The ports reach the banks through an n x m crossbar with round-robin
// conflict arbitration: each cycle, every bank grants at most one of the
// ports whose *head* request maps to it. Granted accesses are performed on
// the backing store immediately and their responses appear on the port's
// response FIFO after the SRAM latency. Because ports arbitrate only with
// their head request and the latency is uniform, per-port response order
// equals request order — the property the adapter's beat packers rely on.
#pragma once

#include <vector>

#include "mem/backing_store.hpp"
#include "mem/bank.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

struct BankedMemoryConfig {
  unsigned num_ports = 8;
  unsigned num_banks = 17;
  sim::Cycle sram_latency = 1;   ///< cycles from grant to response visible
  std::size_t req_depth = 2;     ///< per-port request FIFO depth
  std::size_t resp_depth = 64;   ///< per-port response FIFO depth
};

class BankedMemory final : public WordMemory {
 public:
  BankedMemory(sim::Kernel& k, BackingStore& store,
               const BankedMemoryConfig& cfg);

  void tick() override;
  /// Pure request server: a grant requires a visible head request on some
  /// port Fifo (all subscribed); the SRAM latency lives on the response
  /// Fifos.
  bool quiescent() const override { return true; }
  /// Grants and conflict losses (same-cycle same-bank contenders a bank
  /// did not grant).
  MemoryBackendStats activity() const override { return stats_; }

 private:
  std::uint64_t word_index(std::uint64_t addr) const {
    return (addr - store_.base()) / kWordBytes;
  }

  BackingStore& store_;
  BankMap map_;
  std::vector<unsigned> rr_;  ///< per-bank round-robin pointer
  MemoryBackendStats stats_;
  // Per-tick scratch, member-allocated once (the tick is hot and used to
  // heap-allocate per-bank contender lists every cycle).
  std::vector<unsigned> head_bank_;  ///< port -> target bank (or kNoBank)
};

}  // namespace axipack::mem
