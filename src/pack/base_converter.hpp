// Base AXI4 converter: serves regular (non-pack) bursts against the banked
// memory — full-width or narrow, INCR/FIXED/WRAP, reads and writes. This is
// the only converter the BASE system ever exercises; in the PACK system it
// carries the contiguous traffic (unit-stride vector loads/stores, index
// vectors fetched by the core).
//
// Reads issue one beat's word requests per cycle and pipeline across bursts,
// which is what lets a stream of single-beat narrow bursts (the BASE
// system's per-element accesses) sustain at most one element per cycle —
// the bus inefficiency AXI-Pack attacks.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "pack/converter.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class BaseConverter final : public Converter {
 public:
  BaseConverter(sim::Kernel& k, std::vector<LaneIO> lanes, unsigned bus_bytes,
                unsigned queue_depth, std::size_t max_bursts = 32,
                std::size_t r_out_depth = 4, std::size_t b_out_depth = 4);

  bool can_accept_ar() const override;
  void accept_ar(const axi::AxiAr& ar) override;
  sim::Fifo<axi::AxiR>* r_out() override { return &r_out_; }

  bool can_accept_aw() const override;
  void accept_aw(const axi::AxiAw& aw) override;
  bool can_accept_w() const override;
  void accept_w(const axi::AxiW& w) override;
  sim::Fifo<axi::AxiB>* b_out() override { return &b_out_; }

  bool idle() const override { return reads_.empty() && writes_.empty(); }

  void tick() override;
  /// True while every remaining step waits on a lane response: no beat may
  /// issue before a regulated lane retires a word, no B is due and the
  /// front read beat is incomplete. A full output FIFO keeps it awake,
  /// since its pop wakes no one.
  bool quiescent() const override;
  /// Responses are consumed in beat order, so a visible word of a later
  /// beat is held until the front beat's last word arrives: the hint is
  /// that word's cycle, or an earlier write ack's.
  sim::Cycle wake_hint() const override;

 private:
  /// Word accesses of one beat: lanes [first_lane, first_lane+words) read
  /// words starting at word-aligned address `word_addr`.
  struct BeatPlan {
    std::uint64_t word_addr = 0;
    unsigned first_lane = 0;
    unsigned words = 1;
    unsigned useful_bytes = 0;
    unsigned data_lane = 0;  ///< byte lane where the beat's data starts
  };

  struct ReadBurst {
    axi::AxiAr ar;
    unsigned issue_beat = 0;
    unsigned pack_beat = 0;
  };
  struct WriteBurst {
    axi::AxiAw aw;
    unsigned unpack_beat = 0;
    std::uint64_t words_issued = 0;
    std::uint64_t acks = 0;
    bool err = false;  ///< any word ack errored -> B reports SLVERR
  };

  BeatPlan plan_beat(const axi::AxiAx& ax, unsigned beat) const;
  /// The oldest read burst with an unissued beat, or reads_.size().
  std::size_t next_issue() const;

  void tick_issue();
  void tick_pack();
  void collect_acks();

  std::vector<LaneIO> lanes_;
  unsigned bus_bytes_;
  unsigned bus_mask_;  ///< bus_bytes - 1 (bus widths are powers of two)
  Regulator regulator_;
  sim::Fifo<axi::AxiR> r_out_;
  sim::Fifo<axi::AxiB> b_out_;
  std::deque<ReadBurst> reads_;
  /// Index of the first read burst that may still have unissued beats.
  /// Issue is strictly front-to-back, so everything before it is fully
  /// issued — this keeps tick_issue O(1) with many outstanding bursts.
  std::size_t issue_cursor_ = 0;
  std::deque<WriteBurst> writes_;
  std::size_t max_bursts_;
};

}  // namespace axipack::pack
