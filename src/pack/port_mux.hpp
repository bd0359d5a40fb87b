// Bank-port mux (paper Fig. 2b): shares the n physical word ports of the
// banked memory among the adapter's converters. Requests arbitrate per lane
// round-robin across converters; responses are routed back by the converter
// id carried in the tag's top bits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mem/word.hpp"
#include "pack/converter.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class PortMux final : public sim::Component {
 public:
  /// Tag bits reserved for the converter id (top of the 32-bit tag).
  static constexpr unsigned kConvBits = 3;
  static constexpr unsigned kConvShift = 32 - kConvBits;

  PortMux(sim::Kernel& k, mem::WordMemory& memory, unsigned num_converters,
          std::size_t lane_fifo_depth, std::size_t resp_fifo_depth);
  ~PortMux() override;

  /// Lane I/O bundle for converter `conv` (stable for the mux's lifetime).
  std::vector<LaneIO> lanes_of(unsigned conv);

  unsigned num_lanes() const { return lanes_; }

  void tick() override;
  /// Pure forwarder between the converters' lane Fifos and the memory
  /// ports; all pending work is visible in subscribed Fifos.
  bool quiescent() const override { return true; }

  std::uint64_t words_issued() const { return words_issued_; }

  /// Called with the address of every write request the moment it is
  /// granted onto a memory port, before the write enters the port FIFO.
  /// The index coalescer uses this to invalidate retained read data (its
  /// coherence point is this mux: all of the adapter's write streams are
  /// granted here).
  void set_write_snoop(std::function<void(std::uint64_t)> fn) {
    write_snoop_ = std::move(fn);
  }

  /// Sticky (burst-quantum) arbitration: once a converter is granted, it
  /// keeps its lane for up to `quantum` back-to-back grants while it has
  /// requests, before round-robin moves on. Each lane then emits long
  /// single-stream runs — which are single-row runs at the DRAM, since the
  /// coalescing units partition their streams by bank — instead of
  /// fine-grained stream interleave that forces a row swap per grant.
  /// `patience` rides out the holder's production bubbles: while it has
  /// credit but no visible request, competing converters are denied until
  /// `patience` cycles have passed since the holder's last grant, then
  /// round-robin takes over (a short idle port is cheaper than a row swap;
  /// bounded, so liveness is unaffected). Counting from that grant means a
  /// holder that went idle long ago yields to a new competitor at once.
  /// quantum 0 (default) is plain per-cycle round-robin.
  void set_sticky_quantum(std::size_t quantum, sim::Cycle patience = 0) {
    sticky_quantum_ = quantum;
    sticky_patience_ = patience;
  }

 private:
  sim::Fifo<mem::WordReq>& req(unsigned conv, unsigned lane) {
    return *req_flat_[lane * convs_ + conv];
  }
  sim::Fifo<mem::WordResp>& resp(unsigned conv, unsigned lane) {
    return *resp_flat_[lane * convs_ + conv];
  }

  mem::WordMemory& memory_;
  sim::Kernel& kernel_;
  unsigned lanes_;
  unsigned convs_;
  std::vector<mem::WordPort*> ports_;  ///< cached, port(l) is virtual
  // Flat lane-major [lane * convs + conv] fifo arrays: the hot tick scans
  // all converters of one lane, so keep that scan contiguous in memory.
  std::vector<std::unique_ptr<sim::Fifo<mem::WordReq>>> req_flat_;
  std::vector<std::unique_ptr<sim::Fifo<mem::WordResp>>> resp_flat_;
  std::vector<unsigned> rr_;  ///< per-lane round-robin over converters
  std::size_t sticky_quantum_ = 0;      ///< 0 = plain round-robin
  sim::Cycle sticky_patience_ = 0;      ///< bubble-ride-out, in cycles
  std::vector<std::size_t> sticky_credit_;  ///< per-lane remaining quantum
  std::vector<unsigned> sticky_conv_;       ///< per-lane current holder
  /// Cycle of the holder's last grant: its production bubble is counted
  /// from here. Stamped with cycle numbers, not tick counts, so gated and
  /// naive scheduling stay cycle-identical.
  std::vector<sim::Cycle> sticky_last_grant_;
  std::function<void(std::uint64_t)> write_snoop_;
  std::uint64_t words_issued_ = 0;
  /// Lanes with anything stored in their request Fifos or their memory
  /// port's response Fifo. tick() scans only these (the per-lane
  /// arbitration was ~16% of the dram-set profile; most lanes idle most
  /// cycles). Producers re-flag a lane through the Fifos' push taps
  /// (FifoBase::set_push_flag); the mux re-flags after ticking a lane that
  /// still holds items. Occupancy-driven, so an idle lane's skipped body
  /// is a strict no-op and scheduling stays cycle-identical.
  std::uint64_t active_lanes_ = 0;
};

}  // namespace axipack::pack
