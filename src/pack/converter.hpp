// Shared infrastructure for the five burst converters inside the AXI-Pack
// adapter (paper Fig. 2b): lane I/O bundles, the request regulator that
// bounds per-lane in-flight words to the decoupling-queue depth, and packed-
// stream geometry (element <-> word-slot <-> lane mapping).
//
// Packed-stream geometry
// ----------------------
// A pack burst moving `num_elems` elements of `es` bytes on a bus of
// `bus_bytes` is, on the memory side, a stream of 32-bit *word slots*:
//
//   slot s (0-based) belongs to element i = s / wpe at word k = s % wpe,
//   where wpe = es / 4 (words per element, es >= 4).
//
// Beat b of the packed R/W data consists of slots [b*n, (b+1)*n) where
// n = bus_bytes / 4 is the lane count; slot s is always fetched/written by
// lane s % n. This fixed slot->lane mapping is what lets each lane run an
// independent request pointer (Fig. 2c "pointer0..n-1") while the beat
// packer reassembles in order from the per-lane response queues.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "axi/types.hpp"
#include "mem/word.hpp"
#include "sim/kernel.hpp"
#include "util/bits.hpp"

namespace axipack::pack {

/// One lane's request/response FIFO pair as seen by a converter. The FIFOs
/// are owned by the adapter's port mux.
struct LaneIO {
  sim::Fifo<mem::WordReq>* req = nullptr;
  sim::Fifo<mem::WordResp>* resp = nullptr;
};

/// Word-level issue counters of the indirect converters. Duplicate indices
/// fan one burst out to repeated element words; counting *words requested*
/// separately from memory words issued (the port mux / coalescer view)
/// keeps merged requests from being double-counted as issued traffic.
struct IndirectWordStats {
  std::uint64_t idx_words = 0;   ///< index-array words fetched
  std::uint64_t elem_words = 0;  ///< element words requested by the lanes
};

/// Bounds the number of word requests in flight per lane (issued but not yet
/// consumed by the beat packer / response handler) to the decoupling-queue
/// depth — paper Fig. 2c "req regu".
class Regulator {
 public:
  Regulator(unsigned lanes, unsigned depth)
      : in_flight_(lanes, 0), depth_(depth) {}

  bool can_issue(unsigned lane) const { return in_flight_[lane] < depth_; }
  void on_issue(unsigned lane) { ++in_flight_[lane]; }
  void on_retire(unsigned lane) {
    assert(in_flight_[lane] > 0);
    --in_flight_[lane];
  }
  unsigned in_flight(unsigned lane) const { return in_flight_[lane]; }

 private:
  std::vector<unsigned> in_flight_;
  unsigned depth_;
};

/// Geometry of one pack burst. The adapter only supports element sizes that
/// are multiples of the 32-bit word (the paper evaluates 32..256-bit
/// elements); sub-word elements would require read-modify merging the
/// proof-of-concept controller does not implement either.
struct PackGeom {
  unsigned bus_bytes = 32;
  unsigned lanes = 8;        ///< n = bus_bytes / 4
  unsigned elem_bytes = 4;   ///< es
  unsigned wpe = 1;          ///< words per element
  std::uint64_t num_elems = 0;
  std::uint64_t total_words = 0;  ///< num_elems * wpe
  std::uint64_t beats = 0;        ///< ceil(total_words / lanes)

  static PackGeom make(unsigned bus_bytes, unsigned elem_bytes,
                       std::uint64_t num_elems) {
    assert(elem_bytes >= 4 && elem_bytes % 4 == 0);
    assert(bus_bytes % elem_bytes == 0);
    PackGeom g;
    g.bus_bytes = bus_bytes;
    g.lanes = bus_bytes / 4;
    g.elem_bytes = elem_bytes;
    g.wpe = elem_bytes / 4;
    g.num_elems = num_elems;
    g.total_words = num_elems * g.wpe;
    g.beats = util::ceil_div<std::uint64_t>(g.total_words, g.lanes);
    return g;
  }

  /// Element index owning word slot `s`.
  std::uint64_t elem_of_slot(std::uint64_t s) const { return s / wpe; }
  /// Word offset of slot `s` within its element (bytes = 4 * this).
  unsigned word_in_elem(std::uint64_t s) const {
    return static_cast<unsigned>(s % wpe);
  }
  /// Slot handled by `lane` in beat `b`.
  std::uint64_t slot(std::uint64_t beat, unsigned lane) const {
    return beat * lanes + lane;
  }
  bool slot_valid(std::uint64_t s) const { return s < total_words; }
  /// Number of valid lanes (slots) in beat `b`.
  unsigned valid_lanes(std::uint64_t beat) const {
    const std::uint64_t first = beat * lanes;
    if (first >= total_words) return 0;
    const std::uint64_t left = total_words - first;
    return static_cast<unsigned>(left < lanes ? left : lanes);
  }
  /// Payload bytes of beat `b` (partial on the final beat).
  unsigned beat_useful_bytes(std::uint64_t beat) const {
    return valid_lanes(beat) * 4;
  }
};

/// Interface the adapter uses to drive a converter. A converter is also a
/// sim::Component; its tick() advances request generation and packing.
class Converter : public sim::Component {
 public:
  ~Converter() override = default;

  /// Read-side: converters that serve AR bursts override these.
  virtual bool can_accept_ar() const { return false; }
  virtual void accept_ar(const axi::AxiAr&) { assert(false); }
  virtual sim::Fifo<axi::AxiR>* r_out() { return nullptr; }

  /// Write-side: converters that serve AW bursts override these.
  virtual bool can_accept_aw() const { return false; }
  virtual void accept_aw(const axi::AxiAw&) { assert(false); }
  virtual bool can_accept_w() const { return false; }
  virtual void accept_w(const axi::AxiW&) { assert(false); }
  virtual sim::Fifo<axi::AxiB>* b_out() { return nullptr; }

  /// True when no burst is in flight (used for drain checks in tests).
  virtual bool idle() const = 0;

  /// Converters receive work through accept_*() calls (which wake them),
  /// not through Fifo pops, so an idle converter can always sleep. One
  /// that subscribes to its lanes' responses may also sleep mid-burst (it
  /// overrides this); the rest tick every cycle a burst is in flight.
  bool quiescent() const override { return idle(); }
};

}  // namespace axipack::pack
