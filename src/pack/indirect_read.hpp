// Indirect read converter (paper Fig. 2d).
//
// Two stages share the n word-request ports through per-lane round-robin
// arbitration:
//
//  * The *index stage* fetches the index array contiguously (whole bus
//    lines), exactly like a strided-read request generator with stride ==
//    word size. Fetched words pass through offsets extraction, which unpacks
//    the 8/16/32-bit indices in stream order into an index window.
//  * The *element stage* shifts each index by log2(element size), adds the
//    element base address, and issues the word requests of the packed beats;
//    the beat packer then assembles R beats as in the strided converter.
//
// The index window is bounded, which throttles index prefetch; the element
// stage retires window entries once every word slot of an element has been
// issued. Bus utilization of this converter is bounded by r/(r+1) with
// r = elem_size/index_size, because every r data beats require one index
// line through the same ports — the effect quantified in paper Fig. 5a.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/types.hpp"
#include "pack/converter.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

class IndirectReadConverter final : public Converter {
 public:
  /// `idx_lanes` non-empty splits the two stages onto separate lane
  /// bundles: the index stage issues on `idx_lanes`, the element stage on
  /// `lanes`, and both may issue on the same lane number in one cycle
  /// (the coalesced adapter's parallel index lanes — the stages then only
  /// compete at the port mux, not for a shared request FIFO). Empty keeps
  /// the shared-lane round-robin of the plain adapter.
  IndirectReadConverter(sim::Kernel& k, std::vector<LaneIO> lanes,
                        unsigned bus_bytes, unsigned queue_depth,
                        std::size_t r_out_depth = 4,
                        std::size_t idx_window_lines = 4,
                        std::size_t max_bursts = 2,
                        std::vector<LaneIO> idx_lanes = {});

  bool can_accept_ar() const override;
  void accept_ar(const axi::AxiAr& ar) override;
  sim::Fifo<axi::AxiR>* r_out() override { return &r_out_; }
  bool idle() const override { return bursts_.empty(); }

  /// Word-level issue counts (fan-out accounting): `elem_words` counts
  /// element words *requested* by the lanes — what the burst fans out to —
  /// not words issued to memory; with the coalescer in the path the two
  /// differ by exactly its merged count.
  const IndirectWordStats& word_stats() const { return word_stats_; }

  /// Attaches the system fault plan (nullptr = fault-free): packed beats
  /// leaving this converter may be bit-corrupted (delivered as SLVERR).
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

  void tick() override;
  /// True while every remaining step waits on a response: extraction on
  /// the next index word, packing on a word of the front beat, and each
  /// lane's stages on their regulator or the index window. Visible
  /// responses are drained into the stage queues as they arrive, so no
  /// wake hint is needed; a stage with a word to issue keeps the unit
  /// awake even behind a full request FIFO, whose pop wakes no one.
  bool quiescent() const override;

 private:
  // Tag bit 0 distinguishes the two stages' responses on the shared lanes.
  static constexpr std::uint32_t kIdxTag = 1;
  static constexpr std::uint32_t kElemTag = 0;

  struct Burst {
    PackGeom geom;
    std::uint64_t elem_base = 0;
    std::uint64_t idx_base = 0;
    unsigned idx_bytes = 4;   ///< bytes per index (1, 2 or 4)
    unsigned elem_shift = 2;  ///< log2(elem_bytes), cached for the hot issue
    std::uint32_t id = 0;
    axi::Traffic traffic = axi::Traffic::data;
    // Sticky: an errored index word poisons the rest of the burst (the
    // substituted index keeps addresses in-region, but the data is wrong).
    bool err = false;

    // ---- index stage ----
    std::uint64_t idx_words_total = 0;     ///< words covering the index array
    std::vector<std::uint64_t> idx_issue;  ///< per-lane idx line pointer
    std::uint64_t idx_words_extracted = 0; ///< words fed through extraction
    std::deque<std::uint64_t> idx_window;  ///< extracted indices, in order
    std::uint64_t idx_window_base = 0;     ///< element index of window front

    // ---- element stage ----
    std::vector<std::uint64_t> elem_issue;  ///< per-lane beat pointer
    std::uint64_t pack_beat = 0;
  };

  /// Smallest element-stage word slot not yet issued (all below are issued).
  static std::uint64_t issue_frontier(const Burst& bu);
  /// The burst whose next index word on lane `l` may issue: the first with
  /// an unissued word there, while its indices fit the window. Null when
  /// none may (the regulator and the request FIFO are the caller's).
  const Burst* idx_candidate(unsigned l) const;
  /// The burst whose next element word on lane `l` may issue: the first
  /// with an unissued slot there, once its index is in the window.
  const Burst* elem_candidate(unsigned l) const;

  void drain_responses();
  void tick_issue();
  void tick_index_extract();
  void tick_pack();
  void retire_indices(Burst& bu);

  std::vector<LaneIO> lanes_;
  std::vector<LaneIO> idx_lanes_;  ///< empty = index shares `lanes_`
  unsigned bus_bytes_;
  unsigned lanes_n_;
  IndirectWordStats word_stats_;
  Regulator idx_regulator_;
  Regulator elem_regulator_;
  sim::Fifo<axi::AxiR> r_out_;
  std::deque<Burst> bursts_;
  std::size_t max_bursts_;
  std::size_t idx_window_lines_;
  std::vector<bool> prefer_idx_;  ///< per-lane round-robin arbitration state
  // Per-stage per-lane decoupling queues (responses routed by tag bit so the
  // stages never head-of-line block each other).
  std::vector<std::deque<mem::WordResp>> idx_q_;
  std::vector<std::deque<mem::WordResp>> elem_q_;
  sim::FaultPlan* faults_ = nullptr;
};

}  // namespace axipack::pack
