// AXI-Pack adapter top level (paper Fig. 2b).
//
// The adapter is the memory controller bridging an AXI(-Pack) slave port to
// a banked word memory. It demuxes incoming bursts by their pack/indir user
// bits to one of five converters (base AXI4, strided R/W, indirect R/W),
// routes W data in AW-acceptance order, arbitrates the converters onto the
// n bank ports through the port mux, and returns R/B responses in request
// order (AXI-compliant for the single-requester evaluation systems).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "axi/types.hpp"
#include "mem/word.hpp"
#include "pack/base_converter.hpp"
#include "pack/coalescer.hpp"
#include "pack/converter.hpp"
#include "pack/indirect_read.hpp"
#include "pack/indirect_write.hpp"
#include "pack/port_mux.hpp"
#include "pack/strided_read.hpp"
#include "pack/strided_write.hpp"
#include "sim/kernel.hpp"

namespace axipack::pack {

struct AdapterConfig {
  unsigned bus_bytes = 32;          ///< AXI data bus width (D)
  unsigned queue_depth = 4;         ///< decoupling-queue depth (paper: 4)
  std::size_t lane_fifo_depth = 2;  ///< converter->mux request FIFO depth
  std::size_t resp_fifo_depth = 128;
  std::size_t idx_window_lines = 4; ///< index prefetch window, in bus lines
  std::size_t r_out_depth = 4;
  std::size_t base_max_bursts = 64; ///< outstanding regular bursts
  /// Outstanding pack bursts per strided/indirect converter. 2 covers the
  /// 1-cycle SRAM banks; variable-latency backends (DRAM) want more so
  /// request generation never drains at burst boundaries (SystemBuilder
  /// raises it automatically for the "dram" backend).
  std::size_t pack_max_bursts = 2;
  /// Near-memory index coalescing unit on the indirect read path. Enabling
  /// it interposes an MSHR-style pending table plus a row/bank grouping
  /// window between the indirect read converter's element stage and the
  /// port mux, and moves the index stage onto its own parallel mux slot.
  bool coalesce_enable = false;
  /// Pending-table capacity. 512 retains a full gather vector's worth of
  /// element words, so cross-row duplicate columns merge instead of
  /// refetching (the indirect kernels' reuse is across rows, not within
  /// one — see fig8 for the working-set threshold).
  std::size_t coalesce_entries = 512;
  std::size_t coalesce_window = 16;  ///< grouping-window lookahead
};

/// Burst counts by type, for diagnostics and the energy model.
struct AdapterStats {
  std::uint64_t base_reads = 0;
  std::uint64_t base_writes = 0;
  std::uint64_t strided_reads = 0;
  std::uint64_t strided_writes = 0;
  std::uint64_t indirect_reads = 0;
  std::uint64_t indirect_writes = 0;
};

class AxiPackAdapter final : public sim::Component {
 public:
  /// `upstream` is the adapter's slave-side AXI port (the adapter pops
  /// AR/AW/W and pushes R/B); `memory` provides the n word ports.
  AxiPackAdapter(sim::Kernel& k, axi::AxiPort& upstream,
                 mem::WordMemory& memory, const AdapterConfig& cfg);

  void tick() override;
  /// Pure demux/mux: every action pops a subscribed Fifo (upstream AR/AW/W
  /// or a converter's R/B output), so input visibility decides wakefulness.
  bool quiescent() const override { return true; }

  bool idle() const;
  const AdapterStats& stats() const { return stats_; }
  const PortMux& port_mux() const { return *mux_; }

  /// Element-stage coalescing unit, or nullptr when the path is disabled.
  const Coalescer* coalescer() const { return coalescer_.get(); }
  /// Aggregate counters over both coalescing units (element + index
  /// stage); all-zero when the path is disabled. Counts sum; peak
  /// occupancy is the larger unit's (the tables are independent).
  CoalescerStats coalescer_stats() const {
    CoalescerStats s = coalescer_ ? coalescer_->stats() : CoalescerStats{};
    for (const Coalescer* u : {coalescer_idx_.get(), coalescer_str_.get(),
                               coalescer_base_.get()}) {
      if (u == nullptr) continue;
      const CoalescerStats& i = u->stats();
      s.merged += i.merged;
      s.unique += i.unique;
      s.row_groups += i.row_groups;
      s.peak_pending = std::max(s.peak_pending, i.peak_pending);
    }
    return s;
  }
  /// Combined word-level issue counts of the two indirect converters.
  IndirectWordStats indirect_word_stats() const {
    IndirectWordStats s = indirect_r_->word_stats();
    s.idx_words += indirect_w_->word_stats().idx_words;
    s.elem_words += indirect_w_->word_stats().elem_words;
    return s;
  }
  /// Installs the locality key (DRAM bank/row decomposition) used by both
  /// coalescing units' partitioning and grouping. No-op when the path is
  /// disabled; must be called before any indirect traffic flows.
  void set_indirect_locality(Coalescer::LocalityKeyFn fn) {
    if (coalescer_idx_) coalescer_idx_->set_locality_key(fn);
    if (coalescer_str_) coalescer_str_->set_locality_key(fn);
    if (coalescer_base_) coalescer_base_->set_locality_key(fn);
    if (coalescer_) coalescer_->set_locality_key(std::move(fn));
  }

  /// Attaches the system fault plan to the pack-beat assembly points
  /// (nullptr = fault-free).
  void set_fault_plan(sim::FaultPlan* plan) {
    strided_r_->set_fault_plan(plan);
    indirect_r_->set_fault_plan(plan);
  }

 private:
  // Converter indices for the port mux. The coalesced adapter adds a sixth
  // slot so the indirect index stage issues in parallel with the (now
  // coalesced) element stage instead of sharing its lanes.
  enum Conv : unsigned {
    kBase = 0,
    kStridedR = 1,
    kStridedW = 2,
    kIndirectR = 3,
    kIndirectW = 4,
    kNumConvs = 5,
    kIndirectRIdx = 5,       ///< index-stage slot (coalesced adapter only)
    kNumConvsCoalesced = 6,
  };

  Converter* classify_ar(const axi::AxiAr& ar);
  Converter* classify_aw(const axi::AxiAw& aw);

  axi::AxiPort& up_;
  std::unique_ptr<PortMux> mux_;
  std::unique_ptr<Coalescer> coalescer_;      ///< element stage (null = off)
  std::unique_ptr<Coalescer> coalescer_idx_;  ///< index stage (null = off)
  std::unique_ptr<Coalescer> coalescer_str_;  ///< strided-read stage
  std::unique_ptr<Coalescer> coalescer_base_;  ///< base channel (r+w)
  std::unique_ptr<BaseConverter> base_;
  std::unique_ptr<StridedReadConverter> strided_r_;
  std::unique_ptr<StridedWriteConverter> strided_w_;
  std::unique_ptr<IndirectReadConverter> indirect_r_;
  std::unique_ptr<IndirectWriteConverter> indirect_w_;

  std::deque<Converter*> r_order_;  ///< AR acceptance order for R return
  std::deque<Converter*> w_route_;  ///< AW acceptance order for W routing
  std::deque<Converter*> b_order_;  ///< AW acceptance order for B return
  AdapterStats stats_;
};

}  // namespace axipack::pack
