// AxiLink: a register slice that forwards all five channels between an
// upstream (master-side) and downstream (slave-side) AxiPort, one beat per
// channel per cycle, while counting traffic. This is both the bus monitor
// used to measure the paper's R-bus utilization and the pipeline stage a
// real interconnect hop would insert.
#pragma once

#include <cstdint>

#include "axi/types.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"

namespace axipack::axi {

/// Traffic counters accumulated by an AxiLink.
struct BusStats {
  std::uint64_t ar_handshakes = 0;
  std::uint64_t aw_handshakes = 0;
  std::uint64_t r_beats = 0;
  std::uint64_t r_payload_bytes = 0;  ///< useful bytes, all traffic classes
  std::uint64_t r_index_bytes = 0;    ///< useful bytes tagged Traffic::index
  std::uint64_t w_beats = 0;
  std::uint64_t w_payload_bytes = 0;
  std::uint64_t b_handshakes = 0;
  /// R beats this hop corrupted (bit-flip) or truncated under an armed
  /// fault plan — the per-link slice of the system-wide injection count,
  /// so multi-channel systems can report where faults landed.
  std::uint64_t r_fault_beats = 0;

  BusStats diff(const BusStats& earlier) const;
  /// Field-wise accumulation (multi-channel aggregation).
  BusStats& operator+=(const BusStats& other);
};

class ProtocolChecker;

class AxiLink final : public sim::Component {
 public:
  /// Forwards upstream->downstream on AR/AW/W and downstream->upstream on
  /// R/B. Registers itself with the kernel.
  AxiLink(sim::Kernel& k, AxiPort& upstream, AxiPort& downstream);

  void tick() override;
  /// Pure forwarder: all pending work lives in the subscribed channel Fifos,
  /// so the kernel's input-visibility check alone decides wakefulness.
  bool quiescent() const override { return true; }

  const BusStats& stats() const { return stats_; }

  /// Attaches a passive protocol checker observing every beat that crosses
  /// this hop (non-owning; pass nullptr to detach).
  void attach_checker(ProtocolChecker* checker) { checker_ = checker; }

  /// Attaches the system fault plan (nullptr = fault-free). R beats crossing
  /// the hop may then be bit-flipped (SLVERR), truncated (an error beat with
  /// last set; the rest of the real burst is swallowed so master-side burst
  /// accounting stays exact), or stalled a few cycles.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

 private:
  AxiPort& up_;
  AxiPort& down_;
  BusStats stats_;
  ProtocolChecker* checker_ = nullptr;
  sim::FaultPlan* faults_ = nullptr;
  // R-path fault state. All of it advances only while a visible beat sits
  // in down_.r, so quiescent() == true stays protocol-correct: a stalled or
  // discarding link always has its input beat visible and is kept awake.
  bool r_discarding_ = false;    ///< swallowing a truncated burst's tail
  bool r_fault_decided_ = false; ///< head beat's fault already drawn
  sim::LinkFault r_fault_ = sim::LinkFault::none;
  unsigned r_flip_bit_ = 0;
  sim::Cycle r_stall_until_ = 0;
};

}  // namespace axipack::axi
