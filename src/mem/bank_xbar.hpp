// n-port x m-bank crossbar with round-robin conflict arbitration.
//
// Each cycle, every bank grants at most one of the ports whose *head*
// request maps to it (round-robin priority). Granted accesses are performed
// on the backing store immediately and their responses appear on the port's
// response FIFO after the configured SRAM latency. Because ports arbitrate
// only with their head request and the latency is uniform, per-port response
// order equals request order — the property the adapter's beat packers rely
// on.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/bank.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

class BankXbar final : public sim::Component {
 public:
  BankXbar(sim::Kernel& k, BackingStore& store,
           std::vector<WordPort*> ports, unsigned num_banks);

  void tick() override;
  /// Pure request server: a grant requires a visible head request on some
  /// port Fifo (all subscribed); the SRAM latency lives on the response
  /// Fifos, not in the crossbar.
  bool quiescent() const override { return true; }

  const BankMap& map() const { return map_; }
  std::uint64_t total_grants() const { return total_grants_; }
  std::uint64_t total_conflict_losses() const { return conflict_losses_; }

 private:
  std::uint64_t word_index(std::uint64_t addr) const {
    return (addr - store_.base()) / kWordBytes;
  }

  BackingStore& store_;
  sim::Kernel& kernel_;
  std::vector<WordPort*> ports_;
  BankMap map_;
  std::vector<unsigned> rr_;  ///< per-bank round-robin pointer
  std::uint64_t total_grants_ = 0;
  std::uint64_t conflict_losses_ = 0;
  // Per-tick scratch, member-allocated once (the tick is hot and used to
  // heap-allocate per-bank contender lists every cycle).
  std::vector<unsigned> head_bank_;  ///< port -> target bank (or kNoBank)
};

}  // namespace axipack::mem
