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
  /// Occupancy masks over the Fifos the mux consumes, fed by their push
  /// taps (FifoBase::set_push_flag): bit c of conv_mask_[l] is set while
  /// converter c's request Fifo on lane l holds a request, bit l of
  /// resp_lanes_ while memory port l's response Fifo holds a response. The
  /// pop that empties a Fifo clears its bit, so tick() visits only lanes
  /// and converters with stored work (most lanes and converters are idle
  /// most cycles). A clear bit means an empty Fifo, which the full scan
  /// skipped anyway, so scheduling stays cycle-identical.
  std::vector<std::uint64_t> conv_mask_;
  std::uint64_t resp_lanes_ = 0;

  static constexpr unsigned kNoConv = ~0u;
  /// The converter granted lane `l` this cycle, or kNoConv: the sticky
  /// holder while it has a visible request and credit, nobody while it
  /// holds the lane through a bubble, else the first converter with a
  /// visible request in round-robin order from rr_[l]. `convs` is the
  /// lane's converter mask.
  unsigned pick(unsigned l, std::uint64_t convs, sim::Cycle now);
  /// Moves converter `c`'s head request on lane `l` onto the memory port.
  void grant(unsigned l, unsigned c, sim::Cycle now);
};

}  // namespace axipack::pack
