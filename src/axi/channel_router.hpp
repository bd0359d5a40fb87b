// ChannelRouter: per-master address-interleaving fan-out to N memory
// channels (the scale-out hop in front of the per-channel fabrics).
//
// One router sits directly behind each master port of a multi-channel
// system. It decomposes the address of every AR/AW into a channel index
// (XOR-folded granule interleaving, see channel_of), fans the request out
// to its per-channel downstream ports, and re-serializes the responses so
// the master still sees one ordinary AXI4 slave:
//
//   * multi-beat INCR bursts are split at interleave-granule boundaries
//     into per-channel sub-bursts (pure beat pass-through: the sub-burst
//     beats carry the same absolute addresses the original beats had);
//   * AXI-Pack bursts, FIXED/WRAP bursts and single-beat requests are
//     routed whole — pack bursts by their stream anchor (the index-array
//     base for indirect bursts, the element base for strided ones), since
//     their element addresses are data-dependent and cannot be decomposed
//     at the fabric layer. Data stays exact (every backend serves absolute
//     addresses against the shared backing store); only the *timing* of a
//     whole-routed burst is charged to a single channel.
//
// The read and write machinery share no state: AR splitting + R
// reassembly and AW splitting + W routing + B merging are fully
// independent streams, so a long read burst on one channel never
// head-of-line blocks writes (or reads on other channels) — the
// multi-stream property wide fabrics need.
//
// Response re-serialization is strict AR/AW order per master, which is
// also what the single-ID masters in this codebase (VLSU, DMA) already
// rely on from the fabric. Responses are drained *eagerly* into
// per-transaction reorder buffers the moment they are visible, and
// forwarded upstream from the buffers in order. This is the deadlock
// break: each channel returns responses in its own acceptance order, so a
// router that only popped the beat it can forward next would head-of-line
// block a channel's return path on data another master needs first — with
// finite fabric buffering, two masters interleaved across two channels
// form a cyclic wait. Because every router always drains every down-port
// response Fifo, a channel's return path never blocks on re-serialization
// and the cycle cannot close. Buffering is bounded by the outstanding
// sub-bursts the down-port AR fifos admit.
//
// A sub-burst that terminates early with an error (link truncation,
// DECERR) poisons its transaction: the error beat is forwarded with
// `last` set — the same error-terminated-burst shape a truncated link
// burst has — and the remaining sub-bursts are drained and discarded
// (un-emitted ones are cancelled).
//
// Quiescence: request-side work is anchored on visible items in
// subscribed Fifos, but buffered responses can act without a new push
// (the master freeing the upstream R/B Fifo is a pop, not a wake event),
// so quiescent() vouches true only while the reorder buffers are empty.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "axi/types.hpp"
#include "sim/kernel.hpp"

namespace axipack::axi {

/// Address-interleave geometry shared by every router of a system.
struct ChannelRouteConfig {
  std::uint64_t base = 0;        ///< memory region base
  std::uint64_t size = 0;        ///< memory region size in bytes
  std::uint64_t granule = 4096;  ///< interleave granule in bytes (pow2)
  unsigned channels = 2;         ///< channel count (pow2, >= 2)
};

class ChannelRouter final : public sim::Component {
 public:
  /// `upstream` is the master's port (the router pops AR/AW/W from it and
  /// pushes R/B into it). The router owns its `channels` downstream ports;
  /// the per-channel fabric attaches to down(c).
  ChannelRouter(sim::Kernel& k, AxiPort& upstream,
                const ChannelRouteConfig& cfg, const std::string& name);

  AxiPort& down(unsigned channel) { return *down_[channel]; }
  unsigned num_channels() const { return cfg_.channels; }

  /// Channel owning `addr`: the XOR-fold of every log2(channels)-wide bit
  /// group of the granule index, so every aligned block of `channels`
  /// consecutive granules still covers each channel exactly once (wide
  /// sequential streams engage all channels) while power-of-two strides
  /// spread instead of collapsing onto one channel — the same folding idea
  /// the permuted DRAM bank mapping uses, composable with it because the
  /// per-channel DRAM map compacts the granule index back out (see
  /// DramAddressMap). Addresses outside [base, base+size) go to channel 0,
  /// whose crossbar synthesizes the DECERR.
  unsigned channel_of(std::uint64_t addr) const {
    if (addr < cfg_.base || addr - cfg_.base >= cfg_.size) return 0;
    const std::uint64_t g = (addr - cfg_.base) >> gran_log2_;
    std::uint64_t h = g;
    for (unsigned s = log2c_; s < 64; s += log2c_) h ^= g >> s;
    return static_cast<unsigned>(h & (cfg_.channels - 1));
  }

  void tick() override;
  /// True while the response reorder buffers are empty (see file header):
  /// request-side work is anchored on visible items in subscribed Fifos,
  /// buffered responses keep the router awake until flushed.
  bool quiescent() const override;

  /// Outstanding transactions (read + write), for drain checks and tests.
  std::size_t pending() const {
    return r_plan_.size() + b_plan_.size() + w_route_.size();
  }

 private:
  /// One per-channel slice of a split request.
  struct Sub {
    AxiAx ax;                ///< the sub-burst as emitted downstream
    std::uint8_t channel = 0;
    bool emitted = false;    ///< sub-AR/AW pushed downstream
    bool complete = false;   ///< all beats received (reads)
    std::deque<AxiR> buf;    ///< received-but-not-yet-forwarded beats
  };

  /// Read transaction: sub-bursts in original-beat order; responses are
  /// pulled selectively from the per-channel R Fifos in exactly this
  /// order and re-serialized upstream.
  struct ReadTxn {
    std::vector<Sub> subs;
    std::uint64_t seq = 0;        ///< router-local serial (reorder lookup)
    std::uint32_t id = 0;
    unsigned cur = 0;             ///< sub currently being forwarded
    unsigned beats_seen = 0;      ///< beats forwarded of subs[cur]
    bool poisoned = false;        ///< early error termination: discard rest
  };

  /// Write transaction awaiting its per-sub B responses.
  struct WriteTxn {
    std::vector<std::uint8_t> sub_channels;  ///< one entry per sub-AW
    std::uint64_t seq = 0;
    std::uint32_t id = 0;
    unsigned received = 0;        ///< sub-Bs drained so far
    std::uint8_t resp = 0;        ///< worst-of merge of drained sub-Bs
  };

  /// W beats owed to a sub-AW already emitted (AW acceptance order).
  struct WRoute {
    std::uint8_t channel = 0;
    unsigned beats_left = 0;
  };

  /// Splits `ax` into per-channel sub-bursts (see file header).
  std::vector<Sub> split(const AxiAx& ax) const;

  ReadTxn* find_read(std::uint64_t seq);
  WriteTxn* find_write(std::uint64_t seq);
  /// Pops every visible down-port R beat into its sub's reorder buffer.
  void drain_r();
  /// Pops every visible down-port B into its transaction's merge state.
  void drain_b();
  /// Discards buffered beats of a poisoned front transaction and retires
  /// it once every emitted sub has fully returned.
  void reap_poisoned();

  void tick_r();
  void tick_b();
  void tick_ar();
  void tick_aw();
  void tick_w();

  AxiPort& up_;
  ChannelRouteConfig cfg_;
  unsigned log2c_ = 1;
  unsigned gran_log2_ = 12;
  std::vector<std::unique_ptr<AxiPort>> down_;

  // Read machine (no state shared with the write machine below).
  std::deque<ReadTxn> r_plan_;
  bool ar_splitting_ = false;  ///< r_plan_.back() belongs to up_.ar's head
  unsigned ar_next_sub_ = 0;
  /// Per channel: emitted-but-incomplete read subs in emission order —
  /// exactly the order the channel returns this master's bursts in.
  struct RSlot {
    std::uint64_t seq = 0;
    unsigned sub = 0;
  };
  std::vector<std::deque<RSlot>> r_expect_;

  // Write machine.
  std::deque<WriteTxn> b_plan_;
  bool aw_splitting_ = false;  ///< b_plan_.back() belongs to up_.aw's head
  std::vector<Sub> aw_subs_;
  unsigned aw_next_sub_ = 0;
  std::deque<WRoute> w_route_;
  /// Per channel: write txns with an outstanding sub-B, emission order.
  std::vector<std::deque<std::uint64_t>> b_expect_;

  std::uint64_t next_seq_ = 0;
};

}  // namespace axipack::axi
