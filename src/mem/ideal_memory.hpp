// Conflict-free word memory: every port is served every cycle. Used as the
// "ideal" bank count in the Fig. 5 sensitivity sweeps, giving the adapter an
// upper bound unconstrained by banking.
#pragma once

#include "mem/backing_store.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"

namespace axipack::mem {

struct IdealMemoryConfig {
  unsigned num_ports = 8;
  sim::Cycle latency = 1;
  std::size_t req_depth = 2;
  std::size_t resp_depth = 64;
};

/// Counts nothing: activity() reports all zeros.
class IdealMemory final : public WordMemory {
 public:
  IdealMemory(sim::Kernel& k, BackingStore& store,
              const IdealMemoryConfig& cfg);

  void tick() override;
  /// Pure request server: all pending work sits in subscribed request Fifos
  /// (the latency lives on the response Fifos).
  bool quiescent() const override { return true; }

 private:
  BackingStore& store_;
};

}  // namespace axipack::mem
